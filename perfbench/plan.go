package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bulletfs/internal/rpc"
	"bulletfs/internal/workload"
)

// Kind is one client operation.
type Kind uint8

// Operation kinds, in metric order.
const (
	KindRead Kind = iota
	KindCreate
	KindDelete
	numKinds
)

var kindNames = [numKinds]string{"read", "create", "delete"}

func (k Kind) String() string { return kindNames[k] }

// Op is one step of a connection's op stream. File and Version name the
// bytes: content is a pure function of (seed, File, Version, Size).
type Op struct {
	Kind    Kind
	PFactor uint8
	File    uint32
	Version uint32
	Size    int32
}

// FileSpec is one file the set-up phase creates.
type FileSpec struct {
	File    uint32
	Size    int32
	PFactor uint8
	Owner   int // connection allowed to mutate it; -1 = read-only for all
}

// Plan is everything a run executes: the corpus built in set-up and one
// op stream per connection. It is a pure function of (workload, seed,
// seconds); nothing about it depends on timing.
type Plan struct {
	Workload string
	Seed     int64
	Corpus   []FileSpec
	Conns    [][]Op
}

// Spec describes a workload.
type Spec struct {
	Name  string
	Conns int
	// OpsPerSecond sizes the fixed op count: a run of --seconds s executes
	// seconds*OpsPerSecond operations in total, split evenly across
	// connections. The rate is nominal (about what this workload sustains
	// on a 2-vCPU machine); the run ends on the count, never on a timer.
	OpsPerSecond int
	// CacheMB is bulletd's -cache, passed only where it differs from the
	// default; every other bulletd flag keeps its shipped default.
	CacheMB int64
	// HitMin and HitMax bound the window's cache hit ratio: the
	// workload's premise, checked on bulletd's own counters.
	HitMin, HitMax float64
	build          func(seed int64, opsPerConn int) Plan
}

const (
	defaultCacheMB = 64      // bulletd's -cache default
	scratchBase    = 1 << 20 // per-connection scratch files: scratchBase+conn
	anchorFile     = 1 << 30 // read-only file whose capability authorises STATS
)

var specs = []Spec{
	{
		Name:         "hot-small",
		Conns:        2,
		OpsPerSecond: 25000,
		CacheMB:      defaultCacheMB,
		HitMin:       0.99,
		HitMax:       1,
		build:        buildHotSmall,
	},
	{
		Name:         "cold-bulk",
		Conns:        2,
		OpsPerSecond: 2000,
		CacheMB:      4,
		HitMin:       0,
		HitMax:       0.05,
		build:        buildColdBulk,
	},
	{
		Name:         "churn",
		Conns:        1,
		OpsPerSecond: 12000,
		CacheMB:      defaultCacheMB,
		HitMin:       0,
		HitMax:       1,
		build:        buildChurn,
	},
}

func specByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// MakePlan builds the plan for a workload, seed and run length.
func MakePlan(sp Spec, seed int64, seconds int) Plan {
	perConn := seconds * sp.OpsPerSecond / sp.Conns
	if perConn < 3 {
		perConn = 3
	}
	p := sp.build(seed, perConn)
	p.Workload = sp.Name
	p.Seed = seed
	p.Corpus = append(p.Corpus, FileSpec{File: anchorFile, Size: 64, PFactor: 1, Owner: -1})
	return p
}

// subSeed derives an independent stream seed from the run seed and a
// label, so each (workload, purpose, connection) draws its own sequence.
func subSeed(seed int64, label string, conn int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, label, conn)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// Sizes are stratified: a run draws its n sizes one from each of n
// equal-probability strata of the distribution, in seeded order. The seed
// then picks which file gets which size and the content bytes, while a
// run's total bytes, and so its throughput, stay put across seeds.

// paperSizes returns n sizes from the paper's mix (internal/workload:
// log-normal, median 1 KB, p99 64 KB), one per stratum: it sorts at least
// 2^18 generator draws and takes the middle draw of each of n equal runs,
// so even the heavy top stratum lands near its own median.
func paperSizes(seed int64, label string, n int) []int32 {
	per := max(8, (1<<18)/n)
	gen := workload.New(workload.Config{Seed: subSeed(seed, label, 0)})
	draws := make([]int, n*per)
	for i := range draws {
		draws[i] = gen.FileSize()
	}
	sort.Ints(draws)
	sizes := make([]int32, n)
	for i := range sizes {
		sizes[i] = int32(draws[i*per+per/2])
	}
	rng := rand.New(rand.NewSource(subSeed(seed, label+"/order", 0)))
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// bulkSizes returns n sizes log-uniform on [64 KB, 1 MB], one per stratum.
func bulkSizes(seed int64, label string, n int) []int32 {
	rng := rand.New(rand.NewSource(subSeed(seed, label, 0)))
	lo, hi := math.Log(coldMinBytes), math.Log(coldMaxBytes)
	sizes := make([]int32, n)
	for i := range sizes {
		sizes[i] = int32(math.Exp(lo + (float64(i)+rng.Float64())/float64(n)*(hi-lo)))
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// pair appends a create+delete pair of the connection's scratch file.
func pair(ops []Op, conn int, version uint32, size int32) []Op {
	f := uint32(scratchBase + conn)
	return append(ops,
		Op{Kind: KindCreate, PFactor: 1, File: f, Version: version, Size: size},
		Op{Kind: KindDelete, File: f, Version: version, Size: size})
}

const (
	hotFiles = 256
	// pairEvery makes 90% of hot-small ops reads: every 19th step is a
	// create+delete pair, so 18 reads come with 2 mutations.
	pairEvery = 19
)

// buildHotSmall: 2 connections reading a shared hot set of paper-mix
// files, with create+delete pairs at P-FACTOR 1 on each connection's own
// scratch file. Each connection reads the hot set in passes, every pass
// in a fresh seeded order, so every file is read equally often.
func buildHotSmall(seed int64, perConn int) Plan {
	var p Plan
	for f, size := range paperSizes(seed, "hot-small/corpus", hotFiles) {
		p.Corpus = append(p.Corpus, FileSpec{File: uint32(f), Size: size, PFactor: 1, Owner: -1})
	}
	for c := 0; c < 2; c++ {
		rng := rand.New(rand.NewSource(subSeed(seed, "hot-small/order", c)))
		sizes := paperSizes(seed, fmt.Sprintf("hot-small/scratch%d", c), perConn/pairEvery+1)
		ops := make([]Op, 0, perConn)
		var order []int
		var version uint32
		for step := 1; len(ops) < perConn; step++ {
			if step%pairEvery == 0 && len(ops)+2 <= perConn {
				ops = pair(ops, c, version+1, sizes[version])
				version++
				continue
			}
			if len(order) == 0 {
				order = rng.Perm(hotFiles)
			}
			fs := p.Corpus[order[0]]
			order = order[1:]
			ops = append(ops, Op{Kind: KindRead, File: fs.File, Size: fs.Size})
		}
		p.Conns = append(p.Conns, ops)
	}
	return p
}

const (
	coldFiles    = 96
	coldMinBytes = 64 << 10
	coldMaxBytes = 1 << 20
	// coldPairEvery puts one create+delete pair of a bulk file after
	// every this many reads, so each run holds well over 1000 creates
	// and deletes while reads stay the bulk of the bytes.
	coldPairEvery = 8
)

// buildColdBulk: 2 connections each walking its own half of the corpus
// (connection c reads files c, c+2, c+4, ...) cyclically, interleaving
// create+delete pairs of bulk files on their own scratch file. Two
// connections walking the whole corpus from different offsets drift
// together: once one trails the other within a cache's worth of files it
// hits on the leader's fresh entries, catches up and lock-steps on shared
// faults (10-17% hits over a 10 s run). Disjoint halves, each several
// times the cache, keep every read a miss whatever the timing. Both
// connections create the same sizes, so they do equal work.
func buildColdBulk(seed int64, perConn int) Plan {
	// Deal the sorted strata alternately to the two halves, so each
	// connection's half holds the same spread of sizes and both do equal
	// work per cycle; the seed orders the files within each half.
	sizes := bulkSizes(seed, "cold-bulk/corpus", coldFiles)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	rng := rand.New(rand.NewSource(subSeed(seed, "cold-bulk/halves", 0)))
	var p Plan
	p.Corpus = make([]FileSpec, coldFiles)
	for c := 0; c < 2; c++ {
		for i, j := range rng.Perm(coldFiles / 2) {
			f := 2*i + c
			p.Corpus[f] = FileSpec{File: uint32(f), Size: sizes[2*j+c], PFactor: 1, Owner: -1}
		}
	}
	scratch := bulkSizes(seed, "cold-bulk/scratch", perConn/(coldPairEvery+2)+1)
	for c := 0; c < 2; c++ {
		ops := make([]Op, 0, perConn)
		next := c
		var version uint32
		reads := 0
		for len(ops) < perConn {
			if reads == coldPairEvery && len(ops)+2 <= perConn {
				reads = 0
				ops = pair(ops, c, version+1, scratch[version])
				version++
				continue
			}
			fs := p.Corpus[next]
			ops = append(ops, Op{Kind: KindRead, File: fs.File, Size: fs.Size})
			next = (next + 2) % coldFiles
			reads++
		}
		p.Conns = append(p.Conns, ops)
	}
	return p
}

const churnSlots = 128

// buildChurn: 1 connection over a fixed set of slots it owns. Each step
// deletes a seeded slot's file, creates its replacement (a new paper-mix
// size) at P-FACTOR 2 (every replica) and reads it back.
func buildChurn(seed int64, perConn int) Plan {
	var p Plan
	cur := make([]Op, churnSlots) // current version and size per slot
	for f, size := range paperSizes(seed, "churn/corpus", churnSlots) {
		p.Corpus = append(p.Corpus, FileSpec{File: uint32(f), Size: size, PFactor: 2, Owner: 0})
		cur[f] = Op{File: uint32(f), Size: size}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "churn/ops", 0)))
	sizes := paperSizes(seed, "churn/sizes", perConn/3)
	ops := make([]Op, 0, perConn)
	for step := 0; len(ops)+3 <= perConn; step++ {
		s := &cur[rng.Intn(churnSlots)]
		ops = append(ops, Op{Kind: KindDelete, File: s.File, Version: s.Version, Size: s.Size})
		s.Version++
		s.Size = sizes[step]
		ops = append(ops,
			Op{Kind: KindCreate, PFactor: 2, File: s.File, Version: s.Version, Size: s.Size},
			Op{Kind: KindRead, File: s.File, Version: s.Version, Size: s.Size})
	}
	p.Conns = append(p.Conns, ops)
	return p
}

// Encode is the plan's canonical byte form: the corpus then every
// connection's op stream, fixed-width little-endian. Two plans execute
// the same operations on the same bytes exactly when their encodings
// are equal.
func (p Plan) Encode() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Seed))
	b = append(b, p.Workload...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Corpus)))
	for _, f := range p.Corpus {
		b = binary.LittleEndian.AppendUint32(b, f.File)
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Size))
		b = append(b, f.PFactor, byte(int8(f.Owner)))
	}
	for _, ops := range p.Conns {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
		for _, o := range ops {
			b = append(b, byte(o.Kind), o.PFactor)
			b = binary.LittleEndian.AppendUint32(b, o.File)
			b = binary.LittleEndian.AppendUint32(b, o.Version)
			b = binary.LittleEndian.AppendUint32(b, uint32(o.Size))
		}
	}
	return b
}

// Digest is a short hash of Encode, printed with every run.
func (p Plan) Digest() string {
	h := sha256.Sum256(p.Encode())
	return hex.EncodeToString(h[:8])
}

// Tally is what a window did: ops per kind and bytes over the transport
// (header plus payload, each direction).
type Tally struct {
	Ops       [numKinds]int64
	BytesSent int64
	BytesRecv int64
}

// Add accumulates another tally.
func (t *Tally) Add(o Tally) {
	for k := range t.Ops {
		t.Ops[k] += o.Ops[k]
	}
	t.BytesSent += o.BytesSent
	t.BytesRecv += o.BytesRecv
}

// Total is the op count over all kinds.
func (t Tally) Total() int64 {
	var n int64
	for _, c := range t.Ops {
		n += c
	}
	return n
}

func (t Tally) String() string {
	return fmt.Sprintf("reads=%d creates=%d deletes=%d bytes_sent=%d bytes_recv=%d",
		t.Ops[KindRead], t.Ops[KindCreate], t.Ops[KindDelete], t.BytesSent, t.BytesRecv)
}

// Expect is the tally the plan dictates for connections' op streams,
// cut to the first n ops of each (n < 0: all of them). Every op is one
// transaction: a request header plus a create's data out, a reply header
// plus a read's data back.
func (p Plan) Expect(n int) Tally {
	var t Tally
	for _, ops := range p.Conns {
		if n >= 0 && n < len(ops) {
			ops = ops[:n]
		}
		for _, o := range ops {
			t.Ops[o.Kind]++
			t.BytesSent += rpc.HeaderLen
			t.BytesRecv += rpc.HeaderLen
			switch o.Kind {
			case KindCreate:
				t.BytesSent += int64(o.Size)
			case KindRead:
				t.BytesRecv += int64(o.Size)
			}
		}
	}
	return t
}

// fillContent writes the bytes of (seed, file, version) into dst: a
// splitmix64 stream keyed by all three, so every version of every file
// has its own content and a misdirected read cannot verify.
func fillContent(dst []byte, seed int64, file, version uint32) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(file)<<32 ^ uint64(version) ^ 0xD1B54A32D192ED03
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], next())
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(dst[i:], tail[:])
	}
}
