package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/rpc"
)

// servicePort is the capability port bulletd derives from its default
// -port service name.
var servicePort = capability.PortFromString("bullet")

// meteredTransport is one load-generator connection: a TCP transport of
// its own (so one socket), counting header+payload bytes each way. With
// transNS set it also propagates a trace ID per transaction and records
// the duration of each rpc.Transport.Trans call, indexed by sequence.
type meteredTransport struct {
	inner *rpc.TCPTransport
	sent  int64
	recv  int64

	conn    int
	seq     int
	transNS []int64
}

func dialTransport(addr string) *rpc.TCPTransport {
	return rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{servicePort: addr}), 60*time.Second)
}

// traceID names op seq of connection conn on the wire: non-zero, top bit
// clear (so never mistaken for a server-assigned local ID).
func traceID(conn, seq int) uint64 { return uint64(conn+1)<<32 | uint64(seq+1) }

func splitTraceID(id uint64) (conn, seq int) { return int(id>>32) - 1, int(id&0xffffffff) - 1 }

func (t *meteredTransport) Trans(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, error) {
	t.sent += rpc.HeaderLen + int64(len(payload))
	var h rpc.Header
	var body []byte
	var err error
	if t.transNS == nil {
		h, body, err = t.inner.Trans(port, req, payload)
	} else {
		start := time.Now()
		h, body, err = t.inner.TransTraced(port, traceID(t.conn, t.seq), req, payload)
		if t.seq < len(t.transNS) {
			t.transNS[t.seq] = int64(time.Since(start))
		}
		t.seq++
	}
	if err == nil {
		t.recv += rpc.HeaderLen + int64(len(body))
	}
	return h, body, err
}

// liveFile is a file the benchmark expects on the server.
type liveFile struct {
	cap     capability.Capability
	version uint32
	size    int32
}

// Corpus is the set-up phase's result: every file's capability, plus the
// content of the version-0 files (kept so reads verify with a compare).
type Corpus struct {
	seed  int64
	files map[uint32]liveFile
	data  map[uint32][]byte
}

// contentFor returns the expected bytes of (file, version), from the
// corpus copy when it has one, else generated into scratch.
func (c *Corpus) contentFor(file, version uint32, size int32, scratch *[]byte) []byte {
	if version == 0 {
		if d, ok := c.data[file]; ok {
			return d
		}
	}
	if cap(*scratch) < int(size) {
		*scratch = make([]byte, size)
	}
	b := (*scratch)[:size]
	fillContent(b, c.seed, file, version)
	return b
}

// connState is one connection's progress across a window's chunks.
type connState struct {
	cl      *client.Client
	tr      *meteredTransport
	tally   Tally
	failed  int64
	errs    []string
	owned   map[uint32]liveFile // this connection's files
	scratch []byte
	verify  []byte
}

func (r *connState) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// run executes ops in a closed loop: each call blocks on its reply before
// the next is sent. Only the client call is timed; content generation
// and verification happen outside the timed span. A failed or mismatching
// op counts against ok_ops_pct and contributes no latency sample.
func (r *connState) run(corpus *Corpus, ops []Op) (lat [numKinds][]int64) {
	for _, o := range ops {
		r.tally.Ops[o.Kind]++
		switch o.Kind {
		case KindRead:
			f, ok := r.owned[o.File]
			if !ok {
				f, ok = corpus.files[o.File]
			}
			if !ok || f.version != o.Version {
				r.fail("read %d.%d: no live capability", o.File, o.Version)
				continue
			}
			start := time.Now()
			got, err := r.cl.Read(f.cap)
			d := time.Since(start)
			if err != nil {
				r.fail("read %d.%d: %v", o.File, o.Version, err)
				continue
			}
			if !bytes.Equal(got, corpus.contentFor(o.File, o.Version, o.Size, &r.verify)) {
				r.fail("read %d.%d: content mismatch (%d bytes, want %d)", o.File, o.Version, len(got), o.Size)
				continue
			}
			lat[KindRead] = append(lat[KindRead], int64(d))
		case KindCreate:
			if cap(r.scratch) < int(o.Size) {
				r.scratch = make([]byte, o.Size)
			}
			data := r.scratch[:o.Size]
			fillContent(data, corpus.seed, o.File, o.Version)
			start := time.Now()
			c, err := r.cl.Create(servicePort, data, int(o.PFactor))
			d := time.Since(start)
			if err != nil {
				r.fail("create %d.%d: %v", o.File, o.Version, err)
				continue
			}
			r.owned[o.File] = liveFile{cap: c, version: o.Version, size: o.Size}
			lat[KindCreate] = append(lat[KindCreate], int64(d))
		case KindDelete:
			f, ok := r.owned[o.File]
			if !ok || f.version != o.Version {
				r.fail("delete %d.%d: not owned by this connection", o.File, o.Version)
				continue
			}
			delete(r.owned, o.File)
			start := time.Now()
			err := r.cl.Delete(f.cap)
			d := time.Since(start)
			if err != nil {
				r.fail("delete %d.%d: %v", o.File, o.Version, err)
				continue
			}
			lat[KindDelete] = append(lat[KindDelete], int64(d))
		}
	}
	return lat
}

// Chunk is one barrier-to-barrier slice of a window.
type Chunk struct {
	Elapsed time.Duration
	Steal   float64 // share of the host's CPU time stolen by the hypervisor
	Ops     int64
	Bytes   int64
	Lat     [numKinds][]int64 // sorted
}

// Window is the result of running every connection's stream.
type Window struct {
	Elapsed time.Duration // sum over chunks
	Chunks  []Chunk
	Tally   Tally
	Failed  int64
	Errs    []string
	Lat     [numKinds][]int64 // every sample, sorted
	Owned   []map[uint32]liveFile
}

// windowChunks is how many slices a window is cut into. Every
// connection's stream is cut at the same op indexes; all connections
// start a slice together and the next starts when the last finishes.
// Rates and medians are taken per slice and the median slice reported,
// so a burst of interference from outside the benchmark moves a few
// slices, not the result.
const windowChunks = 30

// warmShare is the share of each stream, from its start, run as warm-up
// before the timed slices: one op in warmShare. Warm-up lets the
// server's heap, the Go scheduler and the sockets settle. Its ops are
// checked and counted like any other, but not timed.
const warmShare = 10

// runWindow runs the first perConn ops (-1: all) of every connection's
// stream, connection i over trs[i], one goroutine per connection: first
// the warm-up share untimed, then timed() (which may be nil), then the
// timed slices.
func runWindow(trs []*meteredTransport, corpus *Corpus, plan Plan, perConn int, timed func()) Window {
	conns := make([]*connState, len(trs))
	streams := make([][]Op, len(trs))
	for i, tr := range trs {
		owned := make(map[uint32]liveFile)
		for _, f := range plan.Corpus {
			if f.Owner == i {
				owned[f.File] = corpus.files[f.File]
			}
		}
		conns[i] = &connState{cl: client.New(tr), tr: tr, owned: owned}
		streams[i] = plan.Conns[i]
		if perConn >= 0 && perConn < len(streams[i]) {
			streams[i] = streams[i][:perConn]
		}
	}
	// runAll runs cut(stream) of every connection at once and returns
	// each connection's latencies.
	runAll := func(cut func(ops []Op) []Op) [][numKinds][]int64 {
		lats := make([][numKinds][]int64, len(conns))
		var wg sync.WaitGroup
		for i, c := range conns {
			ops := cut(streams[i])
			wg.Add(1)
			go func() {
				defer wg.Done()
				lats[i] = c.run(corpus, ops)
			}()
		}
		wg.Wait()
		return lats
	}
	runAll(func(ops []Op) []Op { return ops[:len(ops)/warmShare] })
	if timed != nil {
		timed()
	}

	var w Window
	for j := 0; j < windowChunks; j++ {
		var ch Chunk
		var bytes0 int64
		for _, c := range conns {
			bytes0 += c.tr.sent + c.tr.recv
		}
		steal0 := hostSteal()
		t0 := time.Now()
		lats := runAll(func(ops []Op) []Op {
			ops = ops[len(ops)/warmShare:]
			ops = ops[j*len(ops)/windowChunks : (j+1)*len(ops)/windowChunks]
			ch.Ops += int64(len(ops))
			return ops
		})
		ch.Elapsed = time.Since(t0)
		ch.Steal = (hostSteal() - steal0) / (ch.Elapsed.Seconds() * float64(runtime.NumCPU()))
		for i, c := range conns {
			ch.Bytes += c.tr.sent + c.tr.recv
			for k := range ch.Lat {
				ch.Lat[k] = append(ch.Lat[k], lats[i][k]...)
			}
		}
		ch.Bytes -= bytes0
		for k := range ch.Lat {
			sortInts(ch.Lat[k])
			w.Lat[k] = append(w.Lat[k], ch.Lat[k]...)
		}
		w.Elapsed += ch.Elapsed
		w.Chunks = append(w.Chunks, ch)
	}
	for _, c := range conns {
		c.tally.BytesSent, c.tally.BytesRecv = c.tr.sent, c.tr.recv
		w.Tally.Add(c.tally)
		w.Failed += c.failed
		w.Errs = append(w.Errs, c.errs...)
		w.Owned = append(w.Owned, c.owned)
	}
	for k := range w.Lat {
		sortInts(w.Lat[k])
	}
	return w
}

// tail is the q-quantile of kind k's samples, as the median over groups
// of consecutive slices. The window's slices are pooled, in time order,
// into as many groups (up to one per slice) as leave at least ten samples
// beyond the quantile in each, and each group's quantile is taken. A
// stall from outside the benchmark then moves one group's tail, not the
// reported one. ok is false when even one group would be too small.
func (w Window) tail(k Kind, q float64) (v float64, groups int, ok bool) {
	n := len(w.Lat[k])
	groups = min(int(float64(n)*(1-q)/10), len(w.Chunks))
	if groups == 0 {
		return 0, 0, false
	}
	var vals []float64
	var pool []int64
	next := 1
	for i, c := range w.Chunks {
		pool = append(pool, c.Lat[k]...)
		// Close group g after slice i once it has its share of slices.
		if (i+1)*groups >= next*len(w.Chunks) {
			sortInts(pool)
			vals = append(vals, quantile(pool, q))
			pool = pool[:0]
			next++
		}
	}
	return medianFloat(vals), groups, true
}

// timedOps is the op count of the timed slices (the window less its
// warm-up).
func (w Window) timedOps() int64 {
	var n int64
	for _, c := range w.Chunks {
		n += c.Ops
	}
	return n
}

// opsPerSec is the median slice's op rate.
func (w Window) opsPerSec() float64 {
	return w.medianOverChunks(func(c Chunk) float64 { return float64(c.Ops) / c.Elapsed.Seconds() })
}

// hostSteal is the CPU time, in seconds over all CPUs, the hypervisor
// has given to other guests (the steal column of /proc/stat); 0 where
// unavailable.
func hostSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

func sortInts(s []int64) { sort.Slice(s, func(a, b int) bool { return s[a] < s[b] }) }

// medianOverChunks is the median over the window's slices of f(slice).
func (w Window) medianOverChunks(f func(Chunk) float64) float64 {
	v := make([]float64, len(w.Chunks))
	for i, ch := range w.Chunks {
		v[i] = f(ch)
	}
	return medianFloat(v)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
