package obs

import (
	"fmt"
	"sync"
	"testing"
)

// Ids round-trip to their names, joins agree with interning the dotted
// name, and Root is the first component's id.
func TestInternPath(t *testing.T) {
	p := InternPath("pathtest.a.b")
	if got := p.String(); got != "pathtest.a.b" {
		t.Fatalf("String = %q", got)
	}
	if InternPath("pathtest.a.b") != p {
		t.Fatal("re-interning gave a new id")
	}
	a := InternPath("pathtest.a")
	if j := JoinPath(a, "b"); j != p {
		t.Fatalf("JoinPath(pathtest.a, b) = %d (%s), want %d", j, j, p)
	}
	root := InternPath("pathtest")
	if p.Root() != root || a.Root() != root || root.Root() != root {
		t.Fatalf("roots %d %d %d, want %d", p.Root(), a.Root(), root.Root(), root)
	}
}

// The table serves the whole process: goroutines interning and joining
// overlapping names at once must agree on every id.
func TestInternPathConcurrent(t *testing.T) {
	const workers, names = 4, 64
	ids := make([][]Path, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				n := (i + w*names/workers) % names
				parent := InternPath(fmt.Sprintf("conc%d", n%4))
				ids[w] = append(ids[w], JoinPath(parent, fmt.Sprintf("leaf%d", n)))
			}
		}(w)
	}
	wg.Wait()
	for w := range ids {
		for i, p := range ids[w] {
			n := (i + w*names/workers) % names
			if want := fmt.Sprintf("conc%d.leaf%d", n%4, n); p.String() != want || InternPath(want) != p {
				t.Fatalf("worker %d: id %d reads %q, want %q", w, p, p.String(), want)
			}
		}
	}
}
