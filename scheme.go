package vliwmt

import "vliwmt/internal/merge"

// Scheme is a first-class merge scheme: a merge-control tree (or one
// of the IMT/BMT baselines) that can be passed anywhere a scheme-name
// string is accepted. Build one with ParseScheme and assign it to
// Config.Merge or SweepJob.Merge; the zero Scheme means "unset" and
// defers to the name field.
type Scheme = merge.Scheme

// ParseScheme resolves a scheme name into a first-class Scheme. It
// accepts everything the name-based entry points do: the paper's
// names ("3SSS", "2SC3", "C4", ...), the IMT/BMT baselines and
// canonical tree expressions such as "C(S(T0,T1),T2,T3)". Unknown
// names are an error.
func ParseScheme(name string) (Scheme, error) { return merge.Resolve(name) }
