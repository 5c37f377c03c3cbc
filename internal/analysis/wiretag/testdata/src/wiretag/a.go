// Package wiretag_testdata exercises the wiretag analyzer. It is
// presented to the analyzer under an import path ending internal/api,
// so the DTO json-tag rule applies, and it registers metrics through
// the real vliwmt/internal/telemetry package so constructor calls
// resolve exactly as they do in production code.
package wiretag_testdata

import "vliwmt/internal/telemetry"

// RunResult is a well-formed DTO: every exported field tagged.
type RunResult struct {
	Cycles  uint64  `json:"cycles"`
	IPC     float64 `json:"ipc"`
	scratch int     // unexported: not part of the wire format
}

// SweepRow is missing a tag on one exported field.
type SweepRow struct {
	Scheme string  `json:"scheme"`
	Speed  float64 // want `exported wire field SweepRow.Speed has no json tag`
}

// LegacyRow keeps an untagged field under an explicit waiver.
type LegacyRow struct {
	//vliwvet:allow wiretag field predates the wire freeze and is never serialized
	Internal int
}

var (
	okPlain   = telemetry.NewCounter("sweep_runs_total", "runs completed")
	okLabeled = telemetry.NewLabeledCounter("http_requests_total", `route="sweep",code="200"`, "requests")

	badCase = telemetry.NewCounter("Sweep-Runs", "x")   // want `telemetry metric name "Sweep-Runs" does not match`
	badLead = telemetry.NewGauge("_queue_depth", "x")   // want `telemetry metric name "_queue_depth" does not match`
	badKey  = telemetry.NewLabeledCounter("hits_total", // good name
		`Route="sweep"`, "x") // want `telemetry label set Route="sweep" is malformed`
)

func dynamicName(suffix string) *telemetry.Counter {
	return telemetry.NewCounter("sweep_"+suffix, "x") // want `telemetry metric name must be a compile-time constant string`
}

// perRoute is the sanctioned dynamic-label idiom: constant keys,
// dynamic values. The analyzer resolves the labels variable through
// its single assignment.
func perRoute(route string) *telemetry.Counter {
	labels := `route="` + route + `"`
	return telemetry.NewLabeledCounter("requests_total", labels, "per-route requests")
}

// dynamicKey concatenates a runtime value into key position.
func dynamicKey(key string) *telemetry.Counter {
	labels := key + `="v"`
	return telemetry.NewLabeledCounter("requests_total", labels, "x") // want `telemetry label set <dynamic>="v" is malformed`
}

func allowedName() *telemetry.Counter {
	//vliwvet:allow wiretag experimental metric, renamed before the next release
	return telemetry.NewCounter("WIP", "placeholder")
}
