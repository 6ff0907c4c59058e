package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the bit-identical-output contract of the
// deterministic core (DESIGN.md §3/§8: same graph + same options ⇒ the
// same coloring at every parallelism level) at the source level. Inside
// the core packages it flags the constructs whose observable behavior
// varies run to run:
//
//   - `range` over a map (iteration order is randomized — the exact bug
//     the polish pass shipped with before PR 1 fixed it by hand);
//   - time.Now / time.Since (wall-clock reads; audited instrumentation
//     sites carry a suppression citing the section that proves the value
//     never feeds the coloring);
//   - math/rand package-level functions (the global source is not
//     seedable per-run; explicitly seeded rand.New(rand.NewSource(seed))
//     generators are fine and are how the workload generators work);
//   - select statements with two or more communication cases (the
//     runtime chooses among ready cases pseudo-randomly);
//   - go statements (ad-hoc fan-out: scheduling order is nondeterministic,
//     so concurrent writes must merge through one of the audited
//     order-insensitive forms — disjoint index ranges, or chunk-merged
//     argmax under the strictly-greater rule. The audited primitives —
//     parRange workers, ContractPar, SplittingCostPar, the FM chunk scan,
//     the Lemma 8 halves — carry suppressions citing DESIGN.md §14).
var Determinism = &Analyzer{
	Name:      "determinism",
	Doc:       "flags nondeterministic constructs (map ranges, wall-clock reads, global math/rand, multi-case selects) in the deterministic core",
	Directive: "nondeterministic-ok",
	Run:       runDeterminism,
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !pass.InDeterministicCore() {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.For, "range over map %s: iteration order is nondeterministic in the deterministic core",
							typeString(pass.Pkg, t))
					}
				}
			case *ast.CallExpr:
				fn := funcFor(pass.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					// Methods (e.g. on an explicitly seeded *rand.Rand)
					// are not the global-state constructs this analyzer
					// polices.
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" {
						pass.Reportf(n.Pos(), "call to time.%s reads the wall clock in the deterministic core", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						pass.Reportf(n.Pos(), "%s.%s draws from the global, non-seeded source in the deterministic core",
							fn.Pkg().Path(), fn.Name())
					}
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement launches an ad-hoc goroutine in the deterministic core; fan out through an audited parallel primitive or suppress with the DESIGN.md §14 merge-rule audit")
			case *ast.SelectStmt:
				comm := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(), "select with %d communication cases chooses pseudo-randomly among ready cases in the deterministic core", comm)
				}
			}
			return true
		})
	}
	return nil
}
