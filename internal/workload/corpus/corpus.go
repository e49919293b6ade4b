// Package corpus builds synthetic file sets on a simulated kernel: the
// fixed-size file pools of the micro-benchmarks, the web-page sets of the
// Apache experiments and a Linux-source-tree-like corpus for text search
// (the paper's tree: ~68 K mostly-small files plus a few large git packs).
package corpus

import (
	"fmt"
	"math/rand"

	"daxvm/internal/kernel"
	"daxvm/internal/sim"
)

// Fixed creates n files of exactly size bytes named prefix/%06d and
// returns their paths.
func Fixed(t *sim.Thread, p *kernel.Proc, prefix string, n int, size uint64) []string {
	paths := make([]string, n)
	buf := payload(size)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%s/%06d", prefix, i)
		fd, err := p.Create(t, path)
		if err != nil {
			panic(err)
		}
		if size > 0 {
			if err := p.Append(t, fd, buf); err != nil {
				panic(err)
			}
		}
		p.Close(t, fd)
		paths[i] = path
	}
	return paths
}

// TreeConfig shapes a source-tree-like corpus.
type TreeConfig struct {
	// Files is the number of source files (the Linux tree has ~68 K; the
	// default scales down to 8 K).
	Files int
	// LargeFiles models git pack files (few, tens of MB -> scaled).
	LargeFiles int
	// LargeBytes is the size of each large file.
	LargeBytes uint64
	// Seed fixes sizes and needle placement.
	Seed int64
	// Needle is planted in a deterministic subset of files so a search
	// has verifiable hits.
	Needle string
	// NeedleEvery plants the needle in every Nth file.
	NeedleEvery int
}

// DefaultTree mirrors the paper's Linux-tree corpus at simulator scale.
func DefaultTree() TreeConfig {
	return TreeConfig{
		Files:       8000,
		LargeFiles:  3,
		LargeBytes:  24 << 20,
		Seed:        41,
		Needle:      "daxvm_mmap",
		NeedleEvery: 97,
	}
}

// Tree is a created corpus.
type Tree struct {
	Paths      []string
	TotalBytes uint64
	Needles    int
	Needle     string
}

// BuildTree creates the corpus through the kernel's syscall interface.
// Source-file sizes follow the Linux tree's profile: median ~4-10 KiB with
// a tail to ~200 KiB.
func BuildTree(t *sim.Thread, p *kernel.Proc, cfg TreeConfig) *Tree {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tree := &Tree{Needle: cfg.Needle}
	for i := 0; i < cfg.Files; i++ {
		size := sourceFileSize(rng)
		path := fmt.Sprintf("linux/%05d.c", i)
		fd, err := p.Create(t, path)
		if err != nil {
			panic(err)
		}
		data := payload(size)
		if cfg.Needle != "" && cfg.NeedleEvery > 0 && i%cfg.NeedleEvery == 0 {
			copy(data[len(data)/2:], cfg.Needle)
			tree.Needles++
		}
		if err := p.Append(t, fd, data); err != nil {
			panic(err)
		}
		p.Close(t, fd)
		tree.Paths = append(tree.Paths, path)
		tree.TotalBytes += size
	}
	for i := 0; i < cfg.LargeFiles; i++ {
		path := fmt.Sprintf("linux/.git/pack-%d", i)
		fd, err := p.Create(t, path)
		if err != nil {
			panic(err)
		}
		chunk := payload(1 << 20)
		for written := uint64(0); written < cfg.LargeBytes; written += 1 << 20 {
			if err := p.Append(t, fd, chunk); err != nil {
				panic(err)
			}
		}
		p.Close(t, fd)
		tree.Paths = append(tree.Paths, path)
		tree.TotalBytes += cfg.LargeBytes
	}
	return tree
}

// sourceFileSize draws from a source-file-like distribution.
func sourceFileSize(rng *rand.Rand) uint64 {
	switch r := rng.Intn(100); {
	case r < 25:
		return uint64(1024 + rng.Intn(3*1024))
	case r < 60:
		return uint64(4*1024 + rng.Intn(12*1024))
	case r < 85:
		return uint64(16*1024 + rng.Intn(32*1024))
	case r < 97:
		return uint64(48*1024 + rng.Intn(80*1024))
	default:
		return uint64(128*1024 + rng.Intn(128*1024))
	}
}

// payloadSrc is the line payload repeats.
const payloadSrc = "int daxvm_attach(struct vm_area_struct *vma, pgd_t *pgd);\n"

// payload builds deterministic printable content: payloadSrc repeated,
// filled by doubling copies (O(log size) of them).
func payload(size uint64) []byte {
	b := make([]byte, size)
	n := copy(b, payloadSrc)
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
	return b
}
