package wiretag_test

import (
	"testing"

	"vliwmt/internal/analysis/analysistest"
	"vliwmt/internal/analysis/wiretag"
)

// TestWiretag covers the DTO json-tag rule (tagged, untagged, waived),
// metric-name constancy and grammar, the constant-key/dynamic-value
// label idiom, the dynamic-key true positive and the //vliwvet:allow
// suppression path. The testdata import path ends internal/api so the
// DTO rule is active.
func TestWiretag(t *testing.T) {
	analysistest.Run(t, "testdata/src/wiretag", "vliwmt/internal/api", wiretag.Analyzer)
}

// TestWiretagTaggedStructs covers the json-tag rule outside the DTO
// package: a partly tagged struct, named or anonymous, is flagged,
// while fully tagged and untagged structs pass.
func TestWiretagTaggedStructs(t *testing.T) {
	analysistest.Run(t, "testdata/src/tagged", "vliwmt/internal/sim", wiretag.Analyzer)
}
