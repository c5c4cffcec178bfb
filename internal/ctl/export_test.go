package ctl

// export_test.go holds what only tests use: the internal test fixtures
// it hands the external ctl_test package (scenario_test.go, which needs
// internal/scenario, an importer of ctl), and the plane's command log.
var (
	NewServer = newServer
	NewPlane  = newPlane
)

// Commands returns a copy of the command log so far.
func (p *Plane) Commands() []CommandRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]CommandRecord(nil), p.commands...)
}
