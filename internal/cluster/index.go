package cluster

// index.go holds the indexed router state that makes a routing decision
// O(log n) in the fleet size instead of O(n). Each routing policy keeps
// its own index inside State, built lazily on the policy's first Decide
// so streams that never use it (round-robin, the batch FCFS paths) pay
// nothing beyond a nil check on Commit:
//
//   - queuedIndex (LeastQueued): a per-NPU in-flight counter plus a
//     min-heap of the routable NPUs keyed by (count, index). Counts
//     decay passively through a global min-heap of drain events — one
//     event per committed request, fired when the request's fluid
//     horizon passes the decision clock — so a decision is one heap
//     peek and each commit is one push + (amortized) one pop.
//   - workIndex (LeastWork): the routable NPUs partitioned by speed
//     class, each class split into an idle heap (horizon drained, keyed
//     by index) and a busy heap (keyed by freeAt, then index). Within a
//     class the backlog order is exactly the freeAt order, so the class
//     winner is integer-exact; classes are then compared in normalized
//     completion time (backlog + estimate x speed). A homogeneous fleet
//     has one class and never touches the floating-point key, which is
//     what keeps the indexed router decision-identical to the historic
//     backlog scan.
//
// Both indexes are maintained incrementally through Commit / Fail /
// Cordon / Uncordon / Retire / AddNPUWithSpeed. Decisions must be made in
// nondecreasing arrival order (the same contract the fluid horizons
// already impose), which is what lets the drain-event heap and the
// busy-to-idle migration settle monotonically.

import "math/bits"

// heapEnt is one npuHeap entry. Keys live inside the heap rather than
// being read back from the owning index's arrays, so a sift touches one
// run of heap memory instead of a random array slot per comparison —
// at 10,000 backends that locality is most of the decision cost.
type heapEnt struct {
	key int64
	id  int32
}

// npuHeap is an indexed 4-ary min-heap of NPU ids ordered by (key, id),
// with an intrusive position map so membership tests, targeted removal
// and re-key are O(1) lookup + O(log n) sift. The fan-out of 4 halves
// the sift depth of a binary heap and puts each node's whole child
// group (4 x 16-byte entries) on one cache line — at 10,000 backends
// the heaps outgrow L1 and sift depth in cache lines is the decision
// cost.
type npuHeap struct {
	ents []heapEnt
	// pos maps an NPU id to its heap slot, -1 when absent. It grows
	// with the node and is never shrunk.
	pos []int32
}

func newNPUHeap(n int) *npuHeap {
	h := &npuHeap{pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *npuHeap) growTo(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

func (h *npuHeap) contains(i int) bool { return i < len(h.pos) && h.pos[i] >= 0 }

// min returns the NPU id with the smallest (key, id), or -1 when empty.
func (h *npuHeap) min() int {
	if len(h.ents) == 0 {
		return -1
	}
	return int(h.ents[0].id)
}

func (h *npuHeap) push(i int, key int64) {
	h.growTo(i + 1)
	h.pos[i] = int32(len(h.ents))
	h.ents = append(h.ents, heapEnt{key: key, id: int32(i)})
	h.up(len(h.ents) - 1)
}

func (h *npuHeap) remove(i int) {
	p := int(h.pos[i])
	last := len(h.ents) - 1
	h.swap(p, last)
	h.ents = h.ents[:last]
	h.pos[i] = -1
	if p < last {
		h.fixAt(p)
	}
}

// fix re-keys NPU i in place and restores heap order.
func (h *npuHeap) fix(i int, key int64) {
	p := int(h.pos[i])
	h.ents[p].key = key
	h.fixAt(p)
}

func (h *npuHeap) fixAt(p int) {
	if !h.down(p) {
		h.up(p)
	}
}

func less(a, b heapEnt) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func (h *npuHeap) swap(a, b int) {
	h.ents[a], h.ents[b] = h.ents[b], h.ents[a]
	h.pos[h.ents[a].id] = int32(a)
	h.pos[h.ents[b].id] = int32(b)
}

func (h *npuHeap) up(p int) {
	for p > 0 {
		parent := (p - 1) / 4
		if !less(h.ents[p], h.ents[parent]) {
			return
		}
		h.swap(p, parent)
		p = parent
	}
}

func (h *npuHeap) down(p int) bool {
	moved := false
	n := len(h.ents)
	for {
		first := 4*p + 1
		if first >= n {
			return moved
		}
		end := first + 4
		if end > n {
			end = n
		}
		small := first
		for c := first + 1; c < end; c++ {
			if less(h.ents[c], h.ents[small]) {
				small = c
			}
		}
		if !less(h.ents[small], h.ents[p]) {
			return moved
		}
		h.swap(p, small)
		p = small
		moved = true
	}
}

// drainEvent is one committed request's fluid completion: when the
// decision clock passes at, the request no longer counts as in flight on
// npu. epoch guards against slots whose fluid state was wiped by Fail —
// stale events are skipped instead of decrementing a fresh counter.
type drainEvent struct {
	at    int64
	npu   int32
	epoch uint32
}

// drainHeap is a plain 4-ary min-heap of drain events ordered by at
// (same fan-out rationale as npuHeap: one event is 16 bytes, so a child
// group is one cache line).
type drainHeap []drainEvent

func (h *drainHeap) push(e drainEvent) {
	*h = append(*h, e)
	q := *h
	p := len(q) - 1
	for p > 0 {
		parent := (p - 1) / 4
		if q[parent].at <= q[p].at {
			break
		}
		q[parent], q[p] = q[p], q[parent]
		p = parent
	}
}

func (h *drainHeap) pop() drainEvent {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	q = q[:last]
	p := 0
	for {
		first := 4*p + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		small := first
		for c := first + 1; c < end; c++ {
			if q[c].at < q[small].at {
				small = c
			}
		}
		if q[p].at <= q[small].at {
			break
		}
		q[p], q[small] = q[small], q[p]
		p = small
	}
	return top
}

// queuedIndex answers "which routable NPU has the fewest requests in
// flight" in O(1), maintained in O(log n) per commit.
type queuedIndex struct {
	// count is the number of committed requests per NPU whose fluid
	// horizon has not passed the decision clock yet.
	count []int32
	// epoch increments when a slot's fluid state is wiped (Fail), so
	// drain events queued against the old life are ignored.
	epoch []uint32
	// pending holds one drain event per still-counted request, across
	// the whole node.
	pending drainHeap
	// byCount orders the routable NPUs by (count, index).
	byCount *npuHeap
}

func (s *State) buildQueuedIndex(now int64) {
	n := len(s.freeAt)
	q := &queuedIndex{
		count:   make([]int32, n),
		epoch:   make([]uint32, n),
		byCount: newNPUHeap(n),
	}
	for i := 0; i < n; i++ {
		for _, at := range s.horizons[i][s.heads[i]:] {
			if at > now {
				q.count[i]++
				q.pending.push(drainEvent{at: at, npu: int32(i)})
			}
		}
		if s.Routable(i) {
			q.byCount.push(i, int64(q.count[i]))
		}
	}
	s.qidx = q
}

// settle fires every drain event due by now. Counts keep decaying for
// cordoned and draining backends too, so a later Uncordon re-enters the
// rotation with an accurate queue depth.
func (q *queuedIndex) settle(now int64) {
	for len(q.pending) > 0 && q.pending[0].at <= now {
		e := q.pending.pop()
		if e.epoch != q.epoch[e.npu] {
			continue
		}
		i := int(e.npu)
		q.count[i]--
		if q.byCount.contains(i) {
			q.byCount.fix(i, int64(q.count[i]))
		}
	}
}

func (q *queuedIndex) commit(target int, freeAt int64) {
	q.count[target]++
	if q.byCount.contains(target) {
		q.byCount.fix(target, int64(q.count[target]))
	}
	q.pending.push(drainEvent{at: freeAt, npu: int32(target), epoch: q.epoch[target]})
}

// leastQueuedTarget is the indexed LeastQueued decision: settle the
// drain events due by now, then peek the (count, index) heap.
func (s *State) leastQueuedTarget(now int64) int {
	if s.qidx == nil {
		s.buildQueuedIndex(now)
	}
	s.qidx.settle(now)
	if i := s.qidx.byCount.min(); i >= 0 {
		return i
	}
	return 0 // unreachable while the state keeps one active backend
}

// idleSet is a two-level bitset over NPU ids: min() finds the
// lowest-indexed member by scanning the summary words, so the whole
// structure for 10,000 backends is ~1.3 KB and every operation is a
// handful of word reads — far cheaper than heap sifts for the "any
// idle backend? take the lowest index" case that dominates a fleet
// under moderate load.
type idleSet struct {
	// words holds one bit per NPU id; summary holds one bit per words
	// entry that is non-zero.
	words   []uint64
	summary []uint64
}

func (b *idleSet) growTo(n int) {
	for len(b.words)*64 < n {
		b.words = append(b.words, 0)
	}
	for len(b.summary)*64 < len(b.words) {
		b.summary = append(b.summary, 0)
	}
}

func (b *idleSet) set(i int) {
	b.growTo(i + 1)
	w := i >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	b.summary[w>>6] |= 1 << (uint(w) & 63)
}

func (b *idleSet) clear(i int) {
	w := i >> 6
	if w >= len(b.words) {
		return
	}
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// min returns the lowest-indexed member, or -1 when the set is empty.
func (b *idleSet) min() int {
	for sw, s := range b.summary {
		if s != 0 {
			w := sw<<6 + bits.TrailingZeros64(s)
			return w<<6 + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// busyHeap is a lazy 4-ary min-heap of (freeAt, id) entries. Commits
// push a fresh entry instead of re-keying in place — the heap's sift-up
// terminates immediately because a new horizon is almost always the
// largest key — and superseded entries are recognized (key no longer
// matches the backend's freeAt, or the backend left the busy set) and
// discarded when they surface at the root. Every entry is popped at
// most once, so the amortized cost per commit is one push + one pop.
type busyHeap []heapEnt

func (h *busyHeap) push(e heapEnt) {
	*h = append(*h, e)
	q := *h
	p := len(q) - 1
	for p > 0 {
		parent := (p - 1) / 4
		if !less(q[p], q[parent]) {
			break
		}
		q[parent], q[p] = q[p], q[parent]
		p = parent
	}
}

func (h *busyHeap) pop() {
	q := *h
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	q = q[:last]
	p := 0
	for {
		first := 4*p + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		small := first
		for c := first + 1; c < end; c++ {
			if less(q[c], q[small]) {
				small = c
			}
		}
		if !less(q[small], q[p]) {
			break
		}
		q[p], q[small] = q[small], q[p]
		p = small
	}
}

// Membership states a backend can hold in its work class.
const (
	workAbsent = uint8(iota) // not routable: in no structure
	workIdle                 // in the class's idle set
	workBusy                 // current entry in the class's busy heap
)

// workClass indexes the routable NPUs of one speed class: idle backends
// (horizon drained — backlog zero, lowest index wins) in a bitset, busy
// backends in a lazy (freeAt, index) heap, which within a class is
// exactly the backlog order.
type workClass struct {
	speed float64
	idle  idleSet
	busy  busyHeap
}

// workIndex answers "which routable NPU finishes this request first in
// normalized time" with one candidate per speed class.
type workIndex struct {
	classOf []int32
	// state tracks each backend's membership (absent / idle / busy) so
	// superseded busy entries are recognized without position maps.
	state   []uint8
	classes []*workClass
}

func (w *workIndex) newClass(speed float64) int32 {
	w.classes = append(w.classes, &workClass{speed: speed})
	return int32(len(w.classes) - 1)
}

// classFor finds (or creates) the class with exactly this speed. Classes
// appear in first-seen backend order, so iteration is deterministic.
func (w *workIndex) classFor(speed float64) int32 {
	for ci, c := range w.classes {
		if c.speed == speed {
			return int32(ci)
		}
	}
	return w.newClass(speed)
}

func (s *State) buildWorkIndex() {
	n := len(s.freeAt)
	w := &workIndex{classOf: make([]int32, n), state: make([]uint8, n)}
	for i := 0; i < n; i++ {
		ci := w.classFor(s.speedOf(i))
		w.classOf[i] = ci
		if s.Routable(i) {
			// Everything starts busy; the first settle migrates the
			// already-drained backends to the idle sets.
			w.state[i] = workBusy
			w.classes[ci].busy.push(heapEnt{key: s.freeAt[i], id: int32(i)})
		}
	}
	s.widx = w
}

// settle discards superseded busy entries and migrates backends whose
// horizon has drained by now into their class's idle set, leaving each
// busy heap's root fresh (or the heap empty).
func (w *workIndex) settle(s *State, now int64) {
	for _, c := range w.classes {
		for len(c.busy) > 0 {
			top := c.busy[0]
			i := int(top.id)
			if w.state[i] != workBusy || s.freeAt[i] != top.key {
				c.busy.pop() // superseded by a later commit or a drop
				continue
			}
			if top.key > now {
				break
			}
			c.busy.pop()
			w.state[i] = workIdle
			c.idle.set(i)
		}
	}
}

func (w *workIndex) commit(s *State, target int) {
	c := w.classes[w.classOf[target]]
	switch w.state[target] {
	case workAbsent:
		return // not in rotation; Uncordon re-inserts with the fresh horizon
	case workIdle:
		c.idle.clear(target)
	}
	w.state[target] = workBusy
	c.busy.push(heapEnt{key: s.freeAt[target], id: int32(target)})
}

// drop removes a backend from its class's decision structures (Retire,
// Cordon, Fail). classOf is retained so Uncordon can re-insert; a busy
// entry left in the heap is discarded as superseded when it surfaces.
func (w *workIndex) drop(i int) {
	if w.state[i] == workIdle {
		w.classes[w.classOf[i]].idle.clear(i)
	}
	w.state[i] = workAbsent
}

// leastWorkTarget is the indexed LeastWork decision. With one speed
// class the answer is integer-exact: the idle heap's lowest index, else
// the busy heap's (freeAt, index) minimum — precisely the historic
// backlog scan with its lowest-index tie rule. With several classes the
// per-class candidates are compared in normalized completion time,
// backlog + est x speed, ties to the lowest index.
func (s *State) leastWorkTarget(now, est int64) int {
	if s.widx == nil {
		s.buildWorkIndex()
	}
	w := s.widx
	w.settle(s, now)
	if len(w.classes) == 1 {
		c := w.classes[0]
		if i := c.idle.min(); i >= 0 {
			return i
		}
		if len(c.busy) > 0 {
			return int(c.busy[0].id)
		}
		return 0 // unreachable while the state keeps one active backend
	}
	best, bestKey := -1, 0.0
	for _, c := range w.classes {
		cand := c.idle.min()
		if cand < 0 && len(c.busy) > 0 {
			cand = int(c.busy[0].id)
		}
		if cand < 0 {
			continue
		}
		key := float64(s.Backlog(cand, now)) + float64(est)*c.speed
		if best < 0 || key < bestKey || (key == bestKey && cand < best) {
			best, bestKey = cand, key
		}
	}
	if best < 0 {
		return 0 // unreachable while the state keeps one active backend
	}
	return best
}

// indexCommit keeps the lazily built decision indexes in sync with a
// committed routing decision.
func (s *State) indexCommit(target int) {
	if s.qidx != nil {
		s.qidx.commit(target, s.freeAt[target])
	}
	if s.widx != nil {
		s.widx.commit(s, target)
	}
}

// indexDrop takes backend i out of the decision heaps (it stopped being
// routable). Queued-index counts keep decaying via drain events so a
// later re-insertion sees fresh depths.
func (s *State) indexDrop(i int) {
	if s.qidx != nil && s.qidx.byCount.contains(i) {
		s.qidx.byCount.remove(i)
	}
	if s.widx != nil {
		s.widx.drop(i)
	}
}

// indexFail additionally wipes the slot's counted life: the fluid state
// is gone, so drain events queued against it must never fire.
func (s *State) indexFail(i int) {
	s.indexDrop(i)
	if s.qidx != nil {
		s.qidx.epoch[i]++
		s.qidx.count[i] = 0
	}
}

// indexUncordon returns backend i to the decision heaps with its current
// queue depth and horizon.
func (s *State) indexUncordon(i int) {
	if s.qidx != nil {
		s.qidx.byCount.push(i, int64(s.qidx.count[i]))
	}
	if s.widx != nil {
		// Re-enter via the busy heap; if the horizon has already
		// drained, the next settle migrates it to idle before any
		// decision reads it.
		s.widx.state[i] = workBusy
		s.widx.classes[s.widx.classOf[i]].busy.push(heapEnt{key: s.freeAt[i], id: int32(i)})
	}
}

// indexAdd registers a fresh slot (AddNPUWithSpeed) with both indexes.
func (s *State) indexAdd(i int, speed float64) {
	if s.qidx != nil {
		s.qidx.count = append(s.qidx.count, 0)
		s.qidx.epoch = append(s.qidx.epoch, 0)
		s.qidx.byCount.push(i, 0)
	}
	if s.widx != nil {
		ci := s.widx.classFor(speed)
		s.widx.classOf = append(s.widx.classOf, ci)
		s.widx.state = append(s.widx.state, workBusy)
		s.widx.classes[ci].busy.push(heapEnt{key: s.freeAt[i], id: int32(i)})
	}
}
