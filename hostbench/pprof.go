package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is a gzipped profile.proto message. The benchmark reads
// the few fields it needs itself, so grouping samples by layer label and
// by package needs nothing outside the standard library.

// repoPkgs are the top-level packages under daxvm/internal that the
// benchmark binary links; cpu_share reports one entry per package, plus
// the benchmark's own code (harness), other repo packages (other) and
// samples with no repo frame at all (runtime).
var repoPkgs = []string{
	"core", "cost", "cpu", "dram", "fs", "kernel", "mem", "mm", "obs",
	"pmem", "pt", "radix", "rbtree", "sim", "tlb", "topo",
}

const (
	shareHarness = "harness"
	shareOther   = "other"
	shareRuntime = "runtime"
)

// profileGroups is a CPU profile grouped two ways.
type profileGroups struct {
	totalNS int64
	// byLabel is CPU time by the goroutine's layer label ("" = unlabelled).
	byLabel map[string]int64
	// byPkg is CPU time by the innermost repo frame's package.
	byPkg map[string]int64
	// unlabelledRepoNS is CPU time on unlabelled goroutines that ran repo
	// code: a gap in the labelling, zero when every path is covered.
	unlabelledRepoNS int64
}

// decodeProfile gunzips and parses a profile written by runtime/pprof.
func decodeProfile(gz []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return parseProfile(raw)
}

// valueIndex is the sample value both profiles are read at: cpu
// nanoseconds in a CPU profile, alloc_space bytes in an allocs profile.
const valueIndex = 1

// groupCPU charges each sample's CPU time to its layer label and to the
// package of the innermost frame that belongs to the repo, so runtime
// helpers (memclr, map deletes) land on the package that called them.
func groupCPU(p *pbProfile) profileGroups {
	g := profileGroups{byLabel: map[string]int64{}, byPkg: map[string]int64{}}
	pkgOfFn := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		pkgOfFn[id] = sharePkg(p.str(nameIdx))
	}
	for _, s := range p.samples {
		if valueIndex >= len(s.values) {
			continue
		}
		ns := int64(s.values[valueIndex])
		g.totalNS += ns
		label := ""
		for _, l := range s.labels {
			if p.str(l.key) == "layer" {
				label = p.str(l.str)
			}
		}
		g.byLabel[label] += ns
		pkg := shareRuntime
	frames:
		for _, locID := range s.locs {
			for _, fn := range p.locs[locID] {
				if q := pkgOfFn[fn]; q != "" {
					pkg = q
					break frames
				}
			}
		}
		g.byPkg[pkg] += ns
		if label == "" && pkg != shareRuntime {
			g.unlabelledRepoNS += ns
		}
	}
	return g
}

// wrapperLayers maps the benchmark's layer wrappers (harness.go) to their
// layer. An allocation is charged to the innermost wrapper on its stack.
var wrapperLayers = map[string]layer{
	"main.boot":            layerBoot,
	"main.env.create":      layerFS,
	"main.env.open":        layerFS,
	"main.env.append":      layerFS,
	"main.env.fsync":       layerFS,
	"main.env.readAt":      layerFS,
	"main.env.close":       layerFS,
	"main.env.unlink":      layerFS,
	"main.env.fallocate":   layerFS,
	"main.env.mmap":        layerMM,
	"main.env.munmap":      layerMM,
	"main.env.msync":       layerMM,
	"main.env.daxvmMmap":   layerCore,
	"main.env.daxvmMunmap": layerCore,
	"main.env.access":      layerCPU,
	"main.run":             layerSim,
	"main.setup":           layerSim,
	"main.snapshot":        layerObs,
	"main.hub.export":      layerObs,
}

// allocByLayer sums an allocs profile's allocated bytes by layer: the
// innermost wrapper on the stack, else sim for code on a simulated
// thread's goroutine, else harness for other repo code, else runtime.
// Unlike a heap-counter delta around each call, this charges nothing to
// a call that is parked while another thread allocates.
func allocByLayer(p *pbProfile) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if valueIndex >= len(s.values) {
			continue
		}
		out[allocOwner(p, s)] += int64(s.values[valueIndex])
	}
	return out
}

func allocOwner(p *pbProfile, s pbSample) string {
	owner := shareRuntime
	for _, locID := range s.locs {
		for _, fn := range p.locs[locID] {
			name := p.str(p.funcs[fn])
			if l, ok := wrapperLayers[name]; ok {
				return layerNames[l]
			}
			switch {
			case strings.HasPrefix(name, "daxvm/internal/sim."):
				owner = layerNames[layerSim]
			case owner == shareRuntime && sharePkg(name) != "":
				owner = shareHarness
			}
		}
	}
	return owner
}

// sharePkg maps a function name to its cpu_share bucket, or "" for code
// outside the repo.
func sharePkg(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return shareHarness
	}
	rest, ok := strings.CutPrefix(fn, "daxvm/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range repoPkgs {
		if p == rest {
			return p
		}
	}
	return shareOther
}

type pbSample struct {
	locs   []uint64
	values []uint64
	labels []pbLabel
}

type pbLabel struct{ key, str int64 }

type pbProfile struct {
	samples []pbSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// pbuf walks protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (d *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			d.err = errors.New("profile: truncated varint")
			return 0
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.err = errors.New("profile: varint overflow")
	return 0
}

// walk calls fn for each field of the message in d; fn must read or skip
// the field's value. A decoding error stops the walk and stays in d.
func (d *pbuf) walk(fn func(field, wire int)) {
	for len(d.b) > 0 && d.err == nil {
		k := d.varint()
		fn(int(k>>3), int(k&7))
	}
}

// sub walks the length-delimited message at d's position.
func (d *pbuf) sub(fn func(m *pbuf, field, wire int)) {
	m := &pbuf{b: d.bytes()}
	m.walk(func(field, wire int) { fn(m, field, wire) })
	if d.err == nil {
		d.err = m.err
	}
}

func (d *pbuf) bytes() []byte {
	n := d.varint()
	if n > uint64(len(d.b)) {
		d.err = errors.New("profile: truncated field")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *pbuf) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.fixed(8)
	case 2:
		d.bytes()
	case 5:
		d.fixed(4)
	default:
		d.err = fmt.Errorf("profile: wire type %d", wire)
	}
}

func (d *pbuf) fixed(n int) {
	if len(d.b) < n {
		d.err = errors.New("profile: truncated fixed field")
		return
	}
	d.b = d.b[n:]
}

// uints reads a repeated varint field, packed or not.
func (d *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire != 2 {
		return append(dst, d.varint())
	}
	sub := pbuf{b: d.bytes()}
	for len(sub.b) > 0 && sub.err == nil {
		dst = append(dst, sub.varint())
	}
	if sub.err != nil {
		d.err = sub.err
	}
	return dst
}

func parseProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	d := &pbuf{b: b}
	d.walk(func(field, wire int) {
		if wire != 2 {
			d.skip(wire)
			return
		}
		switch field {
		case 2: // Sample
			var s pbSample
			d.sub(func(m *pbuf, f, w int) {
				switch f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					s.values = m.uints(w, s.values)
				case 3:
					var l pbLabel
					m.sub(func(lm *pbuf, f, w int) {
						switch f {
						case 1:
							l.key = int64(lm.varint())
						case 2:
							l.str = int64(lm.varint())
						default:
							lm.skip(w)
						}
					})
					s.labels = append(s.labels, l)
				default:
					m.skip(w)
				}
			})
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			d.sub(func(m *pbuf, f, w int) {
				switch f {
				case 1:
					id = m.varint()
				case 4: // Line: inlined frames, innermost first
					m.sub(func(lm *pbuf, f, w int) {
						if f == 1 {
							fns = append(fns, lm.varint())
						} else {
							lm.skip(w)
						}
					})
				default:
					m.skip(w)
				}
			})
			p.locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			d.sub(func(m *pbuf, f, w int) {
				switch f {
				case 1:
					id = m.varint()
				case 2:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			})
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(d.bytes()))
		default:
			d.skip(wire)
		}
	})
	return p, d.err
}
