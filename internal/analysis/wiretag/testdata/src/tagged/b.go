// Package tagged exercises the wiretag json-tag rule outside the wire
// DTO package: it is presented under an import path that does not end
// internal/api, so only structs with at least one json-tagged field
// are wire structs.
package tagged

// Stats is fully tagged: it passes.
type Stats struct {
	Accesses int64 `json:"accesses,omitempty"`
	Misses   int64 `json:"misses,omitempty"`
	hidden   int   // unexported: not part of the wire format
}

// Config carries no json tag at all: it is not a wire struct.
type Config struct {
	Size, Ways int
}

// Result is partly tagged: its untagged counters would ship under
// their Go names.
type Result struct {
	Cycles int64 `json:"cycles"`
	Stalls int64 // want `exported wire field Result.Stalls has no json tag`
	Hits,  // want `exported wire field Result.Hits has no json tag`
	Evicts int64 // want `exported wire field Result.Evicts has no json tag`
	Stats // embedded: checked at its own declaration
}

// Waived keeps a partly tagged layout under an explicit waiver.
type Waived struct {
	Name string `json:"name"`
	//vliwvet:allow wiretag kept in memory only, never encoded
	Scratch int
}

func anonymous() any {
	return struct {
		ID    string `json:"id"`
		Count int    // want `exported wire field struct.Count has no json tag`
	}{}
}
