package ana

import (
	"go/token"
	"regexp"
	"strings"
)

// ignoreRe matches staticcheck-style suppression comments:
//
//	//lint:ignore hotalloc fatal path: the concat only runs when panicking
//	//lint:ignore attrbalance,lockdiscipline reason...
//
// The named analyzers are silenced on the comment's own line and on the
// line directly below it (so the comment can trail the statement or sit
// on its own line above it). "all" silences every analyzer.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// ParseIgnore parses a comment's text as a //lint:ignore directive,
// returning the named analyzers and the free-text reason. ok is false
// when the comment is not an ignore directive at all.
func ParseIgnore(text string) (names []string, reason string, ok bool) {
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil {
		return nil, "", false
	}
	return strings.Split(m[1], ","), strings.TrimSpace(m[2]), true
}

// Ignore is one //lint:ignore directive found in a loaded package.
type Ignore struct {
	Pos     token.Pos
	File    string
	Line    int
	PkgPath string
	Names   []string
	Reason  string

	hits int // diagnostics this directive suppressed
}

// SuppressionSet indexes every //lint:ignore directive in a set of
// packages and tracks which ones actually suppressed a finding, so the
// stale-suppression audit can report directives that no longer bite.
type SuppressionSet struct {
	fset    *token.FileSet
	byLine  map[string]map[int][]*Ignore // file -> covered line -> directives
	ignores []*Ignore                    // in deterministic (pkg, position) order
}

// CollectSuppressions scans pkgs for //lint:ignore comments. Each
// directive covers its own line and the line directly below.
func CollectSuppressions(pkgs ...*Package) *SuppressionSet {
	s := &SuppressionSet{byLine: map[string]map[int][]*Ignore{}}
	for _, pkg := range pkgs {
		if s.fset == nil {
			s.fset = pkg.Fset
		}
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := ParseIgnore(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ig := &Ignore{
						Pos:     c.Pos(),
						File:    pos.Filename,
						Line:    pos.Line,
						PkgPath: pkg.PkgPath,
						Names:   names,
						Reason:  reason,
					}
					s.ignores = append(s.ignores, ig)
					byLine := s.byLine[ig.File]
					if byLine == nil {
						byLine = map[int][]*Ignore{}
						s.byLine[ig.File] = byLine
					}
					byLine[ig.Line] = append(byLine[ig.Line], ig)
					byLine[ig.Line+1] = append(byLine[ig.Line+1], ig)
				}
			}
		}
	}
	return s
}

// suppressionMatches reports whether a directive naming `name` silences
// analyzer. The suppaudit analyzer may only be silenced by its exact
// name: a stray `//lint:ignore all` must not be able to hide the very
// finding that says the suppression is stale.
func suppressionMatches(name, analyzer string) bool {
	if analyzer == "suppaudit" {
		return name == analyzer
	}
	return name == analyzer || name == "all"
}

// MarkedDiagnostic is a diagnostic plus whether a //lint:ignore
// directive covers it.
type MarkedDiagnostic struct {
	Diagnostic
	Suppressed bool
}

// Mark tags each diagnostic with its suppression status and records the
// hit on the covering directive (for the stale audit). A nil set marks
// nothing suppressed.
func (s *SuppressionSet) Mark(diags []Diagnostic) []MarkedDiagnostic {
	out := make([]MarkedDiagnostic, 0, len(diags))
	for _, d := range diags {
		md := MarkedDiagnostic{Diagnostic: d}
		if s != nil && s.fset != nil {
			pos := s.fset.Position(d.Pos)
			for _, ig := range s.byLine[pos.Filename][pos.Line] {
				matched := false
				for _, name := range ig.Names {
					if suppressionMatches(name, d.Analyzer) {
						matched = true
						break
					}
				}
				if matched {
					ig.hits++
					md.Suppressed = true
				}
			}
		}
		out = append(out, md)
	}
	return out
}

// Stale reports directives that suppressed nothing. ranOn reports
// whether the named analyzer actually ran on the directive's package
// this invocation: a directive is only stale when everything it names
// ran and still nothing was suppressed (so running a subset of the
// suite never flags live suppressions). Unknown analyzer names are the
// suppaudit analyzer's job, not this audit's, so they are skipped here
// via the known predicate.
func (s *SuppressionSet) Stale(known func(name string) bool, ranOn func(pkgPath, analyzer string) bool) []Diagnostic {
	var out []Diagnostic
	for _, ig := range s.ignores {
		if ig.hits > 0 {
			continue
		}
		allRan := true
		for _, name := range ig.Names {
			if name == "all" {
				continue
			}
			if !known(name) {
				// Unknown name: reported by suppaudit per-package.
				allRan = false
				break
			}
			if !ranOn(ig.PkgPath, name) {
				allRan = false
				break
			}
		}
		if !allRan {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      ig.Pos,
			Analyzer: "suppaudit",
			Message:  "stale //lint:ignore " + strings.Join(ig.Names, ",") + ": suppresses no finding on this line",
		})
	}
	return out
}

// filterSuppressed drops diagnostics covered by //lint:ignore comments
// (the legacy single-package entry point used by ana.Run).
func filterSuppressed(pkg *Package, diags []Diagnostic) []Diagnostic {
	set := CollectSuppressions(pkg)
	out := diags[:0]
	for _, md := range set.Mark(diags) {
		if !md.Suppressed {
			out = append(out, md.Diagnostic)
		}
	}
	return out
}
