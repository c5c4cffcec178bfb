package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// errDropMustCheck configures the must-check APIs: methods whose error
// return reports lost simulation state, not a mere inconvenience.
// Dropping them is the exact bug class PR 2 fixed by hand in the
// checkpoint path (Manager.Save failures silently un-checkpointed
// tasks). Keys are "pkgpath.TypeName"; values are method names.
//
// An expression-statement call (or go/defer of one) discards the error
// and is flagged; an explicit `_ = x.Close()` is a visible, greppable
// acknowledgment and is allowed.
var errDropMustCheck = map[string][]string{
	"repro/internal/ckptmem.Manager":     {"Save", "Restore"},
	"repro/internal/serving.Session":     {"Close", "Drain"},
	"repro/internal/serving.NodeSession": {"Close", "Drain"},
	"repro.Session":                      {"Close", "Drain"},
	"repro.NodeSession":                  {"Close", "Drain"},
	"repro.Suite":                        {"Close"},
}

var errDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "errors from must-check APIs (ckptmem Save/Restore, Session Close/Drain, ...) are never silently discarded",
	Run:  runErrDrop,
}

func runErrDrop(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch x := n.(type) {
			case *ast.ExprStmt:
				call, _ = x.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = x.Call
			case *ast.GoStmt:
				call = x.Call
			}
			if call == nil {
				return true
			}
			key, method, ok := p.receiverType(call)
			if !ok {
				return true
			}
			if !mustCheck(key, method) {
				return true
			}
			out = append(out, Finding{
				Pos:      p.pos(call),
				Analyzer: "errdrop",
				Message: fmt.Sprintf("discarded error from %s.%s — a must-check API "+
					"(failure means lost simulation state); handle it or acknowledge "+
					"explicitly with `_ = ...`", shortType(key), method),
			})
			return true
		})
	}
	return out
}

func mustCheck(typeKey, method string) bool {
	for _, m := range errDropMustCheck[typeKey] {
		if m == method {
			return true
		}
	}
	return false
}

// shortType compresses "repro/internal/serving.Session" to
// "serving.Session" for messages.
func shortType(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}
