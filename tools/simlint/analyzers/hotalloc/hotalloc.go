// Package hotalloc is the whole-program hot-path allocation analyzer.
// It classifies heap-allocation sites and flags every site reachable
// from a registered hot-path root — the functions the simulator executes
// per fault, per walk, per charge and per shootdown, where a single
// allocation multiplies into millions and caps host events/sec.
//
// Roots are the built-in list below (the fault handlers, the page
// walker, the TLB shootdown broadcast, the charge observer and the span
// taps) plus any function whose doc comment contains a `hotalloc:root`
// marker. Reachability follows static, interface and bound call edges;
// signature-fallback edges are excluded, and the engine's scheduler
// handoff internals (dispatchFrom, resumeOrStart) are a traversal
// stop-list — the handoff is the determinism wall, and crossing it
// would fuse every thread body into the hot path.
//
// Allocation classes reported:
//
//	make            make(map/slice/chan) in a hot function
//	append          append that may grow its backing array
//	closure         func literal (captured variables escape)
//	box             concrete value passed as an interface parameter
//	concat          non-constant string concatenation
//	byteconv        []byte <-> string conversion
//	complit         composite-literal allocation (&T{...}, []T{...}, map lit)
//
// Each diagnostic carries the shortest call trace from one root (and
// the number of additional roots that also reach the site). Intentional
// allocations — amortized warm-up, error paths — are suppressed in
// place with `//lint:ignore hotalloc <why>`.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"daxvm/tools/simlint/ana"
)

// Analyzer is the whole-program hot-path allocation check.
var Analyzer = &ana.Analyzer{
	Name:         "hotalloc",
	Doc:          "flag heap allocations reachable from hot-path roots (fault handlers, page walker, charge/span taps, TLB shootdown), with per-root traces",
	Run:          run,
	WholeProgram: true,
}

// defaultRoots names the per-event entry points of the simulator. Kept
// in sync with DESIGN §7; fixture roots use the doc marker instead.
var defaultRoots = []string{
	"(*daxvm/internal/mm.MM).PageFault",
	"(*daxvm/internal/mm.MM).WPFault",
	"(*daxvm/internal/cpu.Core).Translate",
	"(*daxvm/internal/cpu.Set).Shootdown",
	"(*daxvm/internal/obs.CycleAccount).Book",
	"(*daxvm/internal/obs/span.Collector).Observe",
	"(*daxvm/internal/obs/span.Collector).Wait",
	// The timeline sampler runs on every wake, hundreds of times per
	// run: its slot readings and interval recording must not allocate in
	// steady state.
	"(*daxvm/internal/obs/timeline.Timeline).Sample",
	// Gauge readers run on every timeline sampler wake and must stay
	// allocation-free. They are registered as method values
	// (kernel.registerGauges), so they are rooted explicitly instead of
	// relying on dynamic-call resolution through the registry.
	"(*daxvm/internal/kernel.Kernel).gaugeRunQueue",
	"(*daxvm/internal/kernel.Kernel).gaugeMmapSemQueue",
	"(*daxvm/internal/kernel.Kernel).gaugeInflightIPIs",
	"(*daxvm/internal/kernel.Kernel).gaugePMemBacklog",
	"(*daxvm/internal/kernel.Kernel).gaugeDramOccupancy",
	"(*daxvm/internal/kernel.Kernel).gaugeJournalQueue",
	"(daxvm/internal/kernel.nodeGauge).pmemBacklog",
	"(daxvm/internal/kernel.nodeGauge).dramOccupancy",
}

// stopList cuts traversal at the engine's scheduler handoff: everything
// beyond it runs on another simulated thread's stack, not on the
// faulting path.
var stopList = map[string]bool{
	"(*daxvm/internal/sim.Engine).dispatchFrom":  true,
	"(*daxvm/internal/sim.Thread).resumeOrStart": true,
}

const rootMarker = "hotalloc:root"

func run(pass *ana.Pass) error {
	g := pass.Prog.Graph()

	roots := collectRoots(g)
	if len(roots) == 0 {
		return nil
	}

	// Per-root BFS recording the parent of each reached node, so every
	// diagnostic can carry a shortest trace.
	reached := map[string]map[string]string{} // root -> node -> BFS parent
	for _, root := range roots {
		reached[root] = bfs(g, root)
	}

	// Union of reachable nodes, visited in sorted order.
	nodes := map[string]bool{}
	for _, root := range roots {
		for id := range reached[root] {
			nodes[id] = true
		}
	}

	seen := map[token.Pos]bool{}
	for _, id := range sortedSet(nodes) {
		n := g.Nodes[id]
		if n == nil || n.Pkg == nil || n.Body() == nil {
			continue
		}
		allocs := classifyAllocs(n)
		for _, al := range allocs {
			if seen[al.pos] {
				continue
			}
			seen[al.pos] = true
			trace, extra := bestTrace(roots, reached, id)
			more := ""
			if extra > 0 {
				more = " (+" + itoa(extra) + " more roots)"
			}
			pass.Reportf(al.pos, "hot-path allocation (%s): %s; trace: %s%s",
				al.class, al.what, trace, more)
		}
	}
	return nil
}

func collectRoots(g *ana.CallGraph) []string {
	set := map[string]bool{}
	for _, r := range defaultRoots {
		if n, ok := g.Nodes[r]; ok && n.Body() != nil {
			set[r] = true
		}
	}
	for id, n := range g.Nodes {
		if strings.Contains(n.DocText(), rootMarker) {
			set[id] = true
		}
	}
	return sortedSet(set)
}

// bfs walks traversal edges from root, honoring the stop-list, and
// returns node -> parent (root maps to "").
func bfs(g *ana.CallGraph, root string) map[string]string {
	parent := map[string]string{root: ""}
	queue := []string{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if stopList[id] {
			continue // the node itself is scanned; its callees are not
		}
		for _, e := range g.Out[id] {
			if !e.Kind.Traversal() {
				continue
			}
			if _, ok := parent[e.Callee]; ok {
				continue
			}
			parent[e.Callee] = id
			queue = append(queue, e.Callee)
		}
	}
	return parent
}

// bestTrace renders the shortest root trace (smallest root name wins
// ties) and counts the other roots that reach id.
func bestTrace(roots []string, reached map[string]map[string]string, id string) (string, int) {
	best := ""
	bestLen := -1
	extra := 0
	for _, root := range roots {
		parents, ok := reached[root]
		if !ok {
			continue
		}
		if _, ok := parents[id]; !ok {
			continue
		}
		var chain []string
		for cur := id; cur != ""; cur = parents[cur] {
			chain = append(chain, shortNode(cur))
		}
		if bestLen != -1 {
			extra++
			if len(chain) >= bestLen {
				continue
			}
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		best = strings.Join(chain, " -> ")
		bestLen = len(chain)
	}
	return best, extra
}

func shortNode(id string) string { return (&ana.CGNode{ID: id}).ShortName() }

// --- allocation classification ----------------------------------------------

type allocSite struct {
	pos   token.Pos
	class string
	what  string
}

// classifyAllocs scans one function body (literals excluded — they are
// their own nodes) for allocation sites.
func classifyAllocs(n *ana.CGNode) []allocSite {
	info := n.Pkg.TypesInfo
	var out []allocSite
	add := func(pos token.Pos, class, what string) {
		out = append(out, allocSite{pos: pos, class: class, what: what})
	}
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			if n.Lit != nd {
				add(nd.Pos(), "closure", "func literal captures escape to the heap")
				return false
			}
		case *ast.CallExpr:
			classifyCall(info, nd, add)
		case *ast.BinaryExpr:
			if nd.Op == token.ADD && isStringType(info.TypeOf(nd)) && !isConst(info, nd) {
				add(nd.OpPos, "concat", "string concatenation allocates")
			}
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				if _, ok := ast.Unparen(nd.X).(*ast.CompositeLit); ok {
					add(nd.Pos(), "complit", "&composite literal escapes to the heap")
					return true
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(nd).Underlying().(type) {
			case *types.Slice, *types.Map:
				add(nd.Pos(), "complit", "slice/map literal allocates")
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func classifyCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, string)) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make", "make allocates")
			case "append":
				add(call.Pos(), "append", "append may grow its backing array")
			case "new":
				add(call.Pos(), "make", "new allocates")
			}
			return
		}
	}

	// Conversions: []byte(s) / string(b).
	if tn := conversionType(info, fun); tn != nil && len(call.Args) == 1 {
		argT := types.Default(info.TypeOf(call.Args[0]))
		if isByteSlice(tn) && isStringType(argT) || isStringType(tn) && isByteSlice(argT) {
			add(call.Pos(), "byteconv", "[]byte/string conversion copies")
		}
		return
	}

	// Interface boxing at call arguments.
	sig, _ := info.TypeOf(fun).Underlying().(*types.Signature)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		if isPointerLike(at) {
			continue // pointers box without allocating the pointee
		}
		add(arg.Pos(), "box", "concrete value boxed into interface parameter")
	}
}

// conversionType returns the target type when fun is a type conversion.
func conversionType(info *types.Info, fun ast.Expr) types.Type {
	switch f := fun.(type) {
	case *ast.Ident:
		if tn, ok := info.Uses[f].(*types.TypeName); ok {
			return tn.Type()
		}
	case *ast.SelectorExpr:
		if tn, ok := info.Uses[f.Sel].(*types.TypeName); ok {
			return tn.Type()
		}
	case *ast.ArrayType, *ast.MapType, *ast.StarExpr:
		if t := info.TypeOf(f); t != nil {
			return t
		}
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
