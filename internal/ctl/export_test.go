package ctl

// export_test.go hands the external ctl_test package (scenario_test.go,
// which needs internal/scenario, an importer of ctl) the internal test
// fixtures.
var (
	NewServer = newServer
	NewPlane  = newPlane
)
