package main

import (
	"math"
	"math/rand"

	"daxvm/internal/mem"
)

// sizes fixes how much work each workload does. full is the benchmark;
// tiny is the same shape small enough for unit tests.
type sizes struct {
	deviceBytes uint64
	setupReps   int // set-ups per run whose median is setup_s
	minRounds   int // rounds always run; the digest is taken after them

	// boot-append
	pairScripts     int // distinct pair scripts, cycled through
	cyclesPerKernel int
	minAppend       uint64
	maxAppend       uint64

	// serve-mixed
	serveThreads  int
	corpusFiles   int
	fileBytes     uint64
	roundRequests int // per thread and round
	requestPool   int // per thread

	// repeat-rw
	rwFileBytes   uint64
	roundAccesses int
	accessPool    int
	storeEvery    int    // one store beside every n-th load, on average
	syncWindow    uint64 // msync the store mapping every syncWindow bytes
}

var full = sizes{
	deviceBytes: 1 << 30,
	setupReps:   5,
	minRounds:   2,

	pairScripts:     4,
	cyclesPerKernel: 768,
	minAppend:       4 << 10,
	maxAppend:       1 << 20,

	serveThreads:  16,
	corpusFiles:   4096,
	fileBytes:     32 << 10,
	roundRequests: 16,
	requestPool:   256,

	rwFileBytes:   256 << 20,
	roundAccesses: 4096,
	accessPool:    1 << 16,
	storeEvery:    4,
	syncWindow:    256 << 10,
}

var tiny = sizes{
	deviceBytes: 512 << 20,
	setupReps:   2,
	minRounds:   2,

	pairScripts:     2,
	cyclesPerKernel: 4,
	minAppend:       4 << 10,
	maxAppend:       256 << 10,

	serveThreads:  4,
	corpusFiles:   32,
	fileBytes:     32 << 10,
	roundRequests: 4,
	requestPool:   16,

	rwFileBytes:   16 << 20,
	roundAccesses: 256,
	accessPool:    1024,
	storeEvery:    4,
	syncWindow:    64 << 10,
}

// payloadBytes is the shared source of file contents: every file or
// append is a seed-drawn window into it, so expected contents need no
// per-file copy.
const payloadBytes = 2 << 20

// appendCycle is one create/append/fsync/read-back/close/unlink cycle.
type appendCycle struct {
	off, size uint64 // window into the payload
}

// requestKind is how a serve-mixed request reads its file.
type requestKind uint8

const (
	reqRead  requestKind = iota // read(2)
	reqMmap                     // mmap + copy-out + munmap
	reqDaxVM                    // daxvm_mmap(ephemeral|async) + copy-out + daxvm_munmap
	numRequestKinds
)

type request struct {
	file int
	kind requestKind
}

// access is one repeat-rw load, with an optional store beside it.
type access struct {
	off   uint64 // 4 KiB-aligned load offset
	store bool
}

// inputs is everything a run consumes, generated from the seed before
// timing starts.
type inputs struct {
	payload []byte
	// boot-append: scripts[i][v] is the cycle list of pair i's kernel v
	// (v=0 ext4, v=1 ext4 with DaxVM).
	scripts [][2][]appendCycle
	// serve-mixed: fileOff[i] is file i's window into the payload;
	// requests[w] is thread w's request pool.
	fileOff  []uint64
	requests [][]request
	// repeat-rw
	accesses []access
}

// generate draws a workload's inputs from the seed. Only the fields the
// workload uses are filled.
func generate(workload string, seed int64, sz sizes) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{payload: make([]byte, payloadBytes)}
	rng.Read(in.payload)
	switch workload {
	case "boot-append":
		in.scripts = make([][2][]appendCycle, sz.pairScripts)
		for i := range in.scripts {
			for v := range in.scripts[i] {
				cs := make([]appendCycle, sz.cyclesPerKernel)
				for j := range cs {
					size := logUniformPages(rng, sz.minAppend, sz.maxAppend)
					cs[j] = appendCycle{off: uint64(rng.Int63n(int64(payloadBytes - size + 1))), size: size}
				}
				in.scripts[i][v] = cs
			}
		}
	case "serve-mixed":
		in.fileOff = make([]uint64, sz.corpusFiles)
		for i := range in.fileOff {
			in.fileOff[i] = uint64(rng.Int63n(int64(payloadBytes - sz.fileBytes + 1)))
		}
		in.requests = make([][]request, sz.serveThreads)
		for w := range in.requests {
			rs := make([]request, sz.requestPool)
			for j := range rs {
				rs[j] = request{file: rng.Intn(sz.corpusFiles), kind: requestKind(rng.Intn(int(numRequestKinds)))}
			}
			in.requests[w] = rs
		}
	case "repeat-rw":
		// Loads stay one page short of the end so the store beside them
		// is always inside the file.
		pages := int64(sz.rwFileBytes/mem.PageSize) - 1
		in.accesses = make([]access, sz.accessPool)
		for j := range in.accesses {
			in.accesses[j] = access{
				off:   uint64(rng.Int63n(pages)) * mem.PageSize,
				store: rng.Intn(sz.storeEvery) == 0,
			}
		}
	}
	return in
}

// logUniformPages draws a page-multiple size log-uniformly in [lo, hi].
func logUniformPages(rng *rand.Rand, lo, hi uint64) uint64 {
	x := math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	n := uint64(x) / mem.PageSize * mem.PageSize
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
