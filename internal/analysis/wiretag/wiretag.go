// Package wiretag enforces wire-format and telemetry hygiene:
//
//  1. Every exported field of a wire struct must carry a json tag — the
//     wire format is hand-stabilised, so an untagged field would
//     silently ship under its Go name and drift the format. A wire
//     struct is any struct declared in the wire DTO package (import
//     path ending internal/api) and, anywhere in the module, any
//     struct with at least one json-tagged field: sim.Result,
//     isa.Machine and the other internal types that are their own
//     wire form. Deprecated fields are not exempt: their tags must
//     stay, since old documents still carry them.
//  2. Metric names registered through internal/telemetry must be
//     compile-time constants matching ^[a-z][a-z0-9_]*$, and label
//     sets must be statically well-formed key="value" lists whose
//     keys match the same grammar. Label values may be dynamic
//     (per-route series), label keys may not — dashboards and
//     alerting key on them.
package wiretag

import (
	"go/ast"
	"go/constant"
	"reflect"
	"regexp"
	"strings"

	"vliwmt/internal/analysis"
)

// Analyzer is the wiretag analysis.
var Analyzer = &analysis.Analyzer{
	Name: "wiretag",
	Doc:  "require json tags on every field of a wire struct and statically valid telemetry metric names and label sets",
	Run:  run,
}

// registrars maps telemetry constructor name -> index of its labels
// argument (-1 when the constructor takes no label set). Name is
// always argument 0.
var registrars = map[string]int{
	"NewCounter":          -1,
	"NewGauge":            -1,
	"NewHistogram":        -1,
	"NewLabeledCounter":   1,
	"NewLabeledHistogram": 1,
	"Counter":             1, // Registry methods
	"Gauge":               1,
	"Histogram":           1,
}

func run(pass *analysis.Pass) error {
	isAPI := strings.HasSuffix(pass.Pkg.Path(), "internal/api")
	named := map[*ast.StructType]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = true
					if isAPI || hasJSONTag(st) {
						checkTags(pass, n.Name.Name, st)
					}
				}
			case *ast.StructType:
				if !named[n] && hasJSONTag(n) {
					checkTags(pass, "struct", n)
				}
			case *ast.CallExpr:
				checkRegistration(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// hasJSONTag reports whether any field of st carries a json tag, which
// makes st a wire struct wherever it is declared.
func hasJSONTag(st *ast.StructType) bool {
	for _, field := range st.Fields.List {
		if jsonTag(field) != "" {
			return true
		}
	}
	return false
}

// jsonTag returns the field's json tag value ("" when absent).
func jsonTag(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	return reflect.StructTag(strings.Trim(field.Tag.Value, "`")).Get("json")
}

// checkTags requires a json tag on every exported field of a wire
// struct.
func checkTags(pass *analysis.Pass, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 || jsonTag(field) != "" {
			continue // tagged, or embedded: promoted fields are checked at their declaration
		}
		for _, name := range field.Names {
			if ast.IsExported(name.Name) {
				pass.Reportf(name.Pos(),
					"exported wire field %s.%s has no json tag; the wire format must not depend on Go field names",
					typeName, name.Name)
			}
		}
	}
}

// checkRegistration validates telemetry constructor calls.
func checkRegistration(pass *analysis.Pass, file *ast.File, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	labelsArg, ok := registrars[sel.Sel.Name]
	if !ok {
		return
	}
	fn := pass.TypesInfo.Uses[sel.Sel]
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/telemetry") {
		return
	}
	if fn.Pkg().Path() == pass.Pkg.Path() {
		return // telemetry's own forwarding wrappers pass parameters through
	}
	if len(call.Args) == 0 {
		return
	}

	// Metric name: compile-time constant matching the grammar.
	if name, ok := constString(pass, call.Args[0]); !ok {
		pass.Reportf(call.Args[0].Pos(),
			"telemetry metric name must be a compile-time constant string")
	} else if !analysis.MetricNameRE.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"telemetry metric name %q does not match %s", name, analysis.MetricNameRE)
	}

	// Label set: statically well-formed key="value" pairs.
	if labelsArg < 0 || labelsArg >= len(call.Args) {
		return
	}
	pattern, resolvable := flatten(pass, file, call.Args[labelsArg], 0)
	if !resolvable {
		pass.Reportf(call.Args[labelsArg].Pos(),
			"telemetry label set is not statically analyzable; build it from constant keys with dynamic values only")
		return
	}
	if !labelPatternRE.MatchString(pattern) {
		pass.Reportf(call.Args[labelsArg].Pos(),
			"telemetry label set %s is malformed; want comma-separated key=\"value\" pairs with keys matching %s (values may be dynamic)",
			strings.ReplaceAll(pattern, dynamic, "<dynamic>"), analysis.MetricNameRE)
	}
}

// dynamic is the placeholder flatten substitutes for non-constant
// sub-expressions of a label-set concatenation.
const dynamic = "\x00"

// labelPatternRE validates a flattened label set: zero or more
// key="value" pairs, where the dynamic placeholder may only appear
// inside the quoted value.
var labelPatternRE = regexp.MustCompile(
	`^$|^[a-z][a-z0-9_]*="(?:[^"\\\x00]|\x00)*"(?:,[a-z][a-z0-9_]*="(?:[^"\\\x00]|\x00)*")*$`)

// flatten renders a label-set expression to a string in which dynamic
// sub-expressions become the placeholder: constants render verbatim,
// concatenations concatenate, and a local identifier is resolved one
// level through its initialising assignment. depth bounds the ident
// chase.
func flatten(pass *analysis.Pass, file *ast.File, e ast.Expr, depth int) (string, bool) {
	if s, ok := constString(pass, e); ok {
		return s, true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		l, lok := flatten(pass, file, e.X, depth)
		r, rok := flatten(pass, file, e.Y, depth)
		if !lok || !rok {
			return "", false
		}
		return l + r, true
	case *ast.ParenExpr:
		return flatten(pass, file, e.X, depth)
	case *ast.Ident:
		if depth >= 2 {
			return "", false
		}
		if init := initializer(pass, file, e); init != nil {
			return flatten(pass, file, init, depth+1)
		}
		// Unresolvable identifier: a dynamic value segment. Valid only
		// if it lands inside quotes, which the pattern regexp decides.
		return dynamic, true
	case *ast.CallExpr, *ast.SelectorExpr, *ast.IndexExpr:
		return dynamic, true
	}
	return "", false
}

// initializer finds the expression a local variable was last assigned
// from before use — a single-assignment heuristic: exactly one
// assignment in the file may define it, otherwise nil.
func initializer(pass *analysis.Pass, file *ast.File, id *ast.Ident) ast.Expr {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	var init ast.Expr
	count := 0
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			if pass.TypesInfo.Defs[lid] == obj || pass.TypesInfo.Uses[lid] == obj {
				init = as.Rhs[i]
				count++
			}
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return init
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
