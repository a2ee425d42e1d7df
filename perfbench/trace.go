package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// Geometry and defaults bulletd formats with when given no flags for them.
const (
	blockSize   = 512
	imageBytes  = 64 << 20
	inodeCount  = 10000
	slowRequest = 50 * time.Millisecond
)

// tracedOps caps the op count of the trace-mode windows (across
// connections): the flight recorder must hold every traced window's
// traces, at ~2.3 KB each.
const tracedOps = 16000

// timedDevice is the benchmark's disk.Device wrapper, placed under
// disk.NewReplicaSet: it times and counts every device call.
type timedDevice struct {
	disk.Device
	readNS, writeNS       atomic.Int64
	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func (d *timedDevice) ReadAt(p []byte, off int64) error {
	start := time.Now()
	err := d.Device.ReadAt(p, off)
	d.readNS.Add(int64(time.Since(start)))
	d.reads.Add(1)
	d.readBytes.Add(int64(len(p)))
	return err
}

func (d *timedDevice) WriteAt(p []byte, off int64) error {
	start := time.Now()
	err := d.Device.WriteAt(p, off)
	d.writeNS.Add(int64(time.Since(start)))
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(p)))
	return err
}

type devTotals struct{ readNS, writeNS, reads, writes, readBytes, writeBytes int64 }

func (s *stack) devTotals() devTotals {
	var t devTotals
	for _, d := range s.devs {
		t.readNS += d.readNS.Load()
		t.writeNS += d.writeNS.Load()
		t.reads += d.reads.Load()
		t.writes += d.writes.Load()
		t.readBytes += d.readBytes.Load()
		t.writeBytes += d.writeBytes.Load()
	}
	return t
}

// stack is bulletd's server stack built in-process from the same public
// constructors and defaults, with the benchmark's timing hooks at the
// device and Mux-handler boundaries.
type stack struct {
	devs      []*timedDevice
	engine    *bullet.Server
	rec       *trace.Recorder
	scrubber  *scrub.Scrubber
	collector *stats.Collector
	srv       *rpc.TCPServer
	addr      string
	handlerNS [][]int64 // [conn][seq]: Service.HandleTraced duration
}

// buildStack formats the two images and starts the stack on them.
// With handlerNS nil the stack is exactly bulletd's (stream handler,
// default flight recorder, bare devices); otherwise the benchmark's
// hooks are in place and the recorder holds recentTraces traces.
func buildStack(images memImages, cacheMB int64, recentTraces int, handlerNS [][]int64) (*stack, error) {
	hooked := handlerNS != nil
	s := &stack{handlerNS: handlerNS}
	devs := make([]disk.Device, 0, 2)
	for _, p := range images.selfPaths() {
		fd, err := disk.CreateFile(p, blockSize, imageBytes/blockSize)
		if err != nil {
			return nil, err
		}
		if !hooked {
			devs = append(devs, fd)
			continue
		}
		td := &timedDevice{Device: fd}
		s.devs = append(s.devs, td)
		devs = append(devs, td)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, err
	}
	if err := bullet.Format(set, inodeCount); err != nil {
		return nil, err
	}
	s.engine, err = bullet.New(set, bullet.Options{Port: servicePort, CacheBytes: cacheMB << 20})
	if err != nil {
		return nil, err
	}
	opts := []trace.Option{trace.WithSlowThreshold(slowRequest)}
	if hooked {
		opts = append(opts, trace.WithCapacity(recentTraces, trace.DefaultSlowTraces))
	}
	s.rec = trace.NewRecorder(opts...)
	s.scrubber = scrub.New(s.engine, scrub.Config{Interval: time.Hour, BytesPerSec: scrub.DefaultBytesPerSec})
	s.scrubber.AttachMetrics(s.engine.Metrics())
	s.scrubber.Start()
	s.collector = stats.NewCollector(s.engine.Metrics(), stats.DefaultInterval, stats.DefaultRingSize)
	s.collector.Start()

	mux := rpc.NewMux(0)
	mux.AttachMetrics(s.engine.Metrics(), bulletsvc.CommandName)
	mux.AttachRecorder(s.rec)
	svc := bulletsvc.New(s.engine)
	svc.AttachRecorder(s.rec)
	svc.AttachScrubber(s.scrubber)
	svc.AttachCollector(s.collector)
	svc.Register(mux)
	if hooked {
		mux.RegisterTraced(s.engine.Port(), s.hook(svc))
	}
	s.srv = rpc.NewTCPServer(mux)
	if s.addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// hook is the handler the traced stack registers on the Mux in front of
// Service.HandleTraced, timing each call by the op's trace ID.
func (s *stack) hook(svc *bulletsvc.Service) rpc.TraceHandler {
	return func(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte) (rpc.Header, []byte) {
		start := time.Now()
		h, p := svc.HandleTraced(tc, parent, req, payload)
		d := int64(time.Since(start))
		if id := tc.TraceID(); id != 0 && id&trace.LocalIDBit == 0 {
			conn, seq := splitTraceID(id)
			if conn >= 0 && conn < len(s.handlerNS) && seq >= 0 && seq < len(s.handlerNS[conn]) {
				s.handlerNS[conn][seq] = d
			}
		}
		return h, p
	}
}

// close stops the stack in bulletd's shutdown order.
func (s *stack) close() error {
	s.collector.Close()
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.scrubber.Stop()
	s.engine.Sync()
	if cerr := s.engine.Close(); err == nil {
		err = cerr
	}
	s.rec.Close()
	return err
}

// procWchar is this process's bytes handed to write-family syscalls.
func procWchar() (int64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading /proc/self/io: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// Layers is the traced run's per-layer result.
type Layers struct {
	Ops          int64
	OpsPerSec    float64
	Tally        Tally
	Failed       int64
	Errs         []string
	Counts       Counts
	TransNS      []int64 // sorted, every window op
	WireNS       []int64 // Trans minus handler time
	HandleSelfNS []int64 // handler minus engine/cache span time
	EngineSelfNS [numKinds][]int64
	LookupSelfNS []int64
	Traces       int
	Dev          devTotals
	WireBytes    int64
	PayloadBytes int64 // read and created bytes
	CreatedBytes int64
	Mallocs      uint64
	AllocBytes   uint64
	GCs          uint32
	VerifyNS     float64
	LoadMS       float64
	CreatePF     int
}

// runInProcess runs the first perConn ops of each connection's stream
// over loopback TCP against the stack built in-process. Untraced, the
// stack is bulletd's and only the rate is kept. Traced, a span is
// recorded around every rpc.Transport.Trans, every Mux handler call and
// every device call, and the flight recorder's engine and cache spans are
// read afterwards.
func runInProcess(sp Spec, plan Plan, perConn int, traced bool) (*Layers, error) {
	images, err := newMemImages()
	if err != nil {
		return nil, err
	}
	defer images.close()
	var handlerNS [][]int64
	if traced {
		handlerNS = make([][]int64, sp.Conns)
		for i := range handlerNS {
			handlerNS[i] = make([]int64, perConn)
		}
	}
	st, err := buildStack(images, sp.CacheMB, len(plan.Corpus)+sp.Conns*perConn+64, handlerNS)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	corpus := corpusContent(plan)
	adminTr := dialTransport(st.addr)
	defer adminTr.Close()
	admin := client.New(adminTr)
	if err := upload(admin, plan, corpus); err != nil {
		return nil, err
	}
	anchor := corpus.files[anchorFile].cap
	trs := make([]*meteredTransport, sp.Conns)
	for i := range trs {
		trs[i] = &meteredTransport{inner: dialTransport(st.addr), conn: i}
		if traced {
			trs[i].transNS = make([]int64, perConn)
		}
		defer trs[i].inner.Close()
	}

	L := &Layers{}
	before, err := admin.Stats(anchor)
	if err != nil {
		return nil, fmt.Errorf("stats before window: %w", err)
	}
	wchar0, err := procWchar()
	if err != nil {
		return nil, err
	}
	dev0 := st.devTotals()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := runWindow(trs, corpus, plan, perConn, nil)
	runtime.ReadMemStats(&ms1)
	if err := admin.Sync(servicePort); err != nil {
		return nil, fmt.Errorf("sync after window: %w", err)
	}
	wchar1, err := procWchar()
	if err != nil {
		return nil, err
	}
	dev1 := st.devTotals()
	after, err := admin.Stats(anchor)
	if err != nil {
		return nil, fmt.Errorf("stats after window: %w", err)
	}
	L.Counts = Counts{before: before, after: after}
	L.Tally, L.Failed, L.Errs = w.Tally, w.Failed, w.Errs
	L.Ops = w.Tally.Total()
	L.OpsPerSec = w.opsPerSec()
	if !traced {
		closed = true
		return L, st.close()
	}
	L.Mallocs = ms1.Mallocs - ms0.Mallocs
	L.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	L.GCs = ms1.NumGC - ms0.NumGC
	L.Dev = devTotals{
		readNS: dev1.readNS - dev0.readNS, writeNS: dev1.writeNS - dev0.writeNS,
		reads: dev1.reads - dev0.reads, writes: dev1.writes - dev0.writes,
		readBytes: dev1.readBytes - dev0.readBytes, writeBytes: dev1.writeBytes - dev0.writeBytes,
	}
	// Every byte this process writes in the window is either a frame on
	// a loopback socket (client requests and server replies alike) or an
	// image write, which the device wrapper counted.
	L.WireBytes = (wchar1 - wchar0) - L.Dev.writeBytes
	for i := range trs {
		for _, o := range plan.Conns[i][:min(perConn, len(plan.Conns[i]))] {
			if o.Kind != KindDelete {
				L.PayloadBytes += int64(o.Size)
			}
			if o.Kind == KindCreate {
				L.CreatedBytes += int64(o.Size)
				L.CreatePF = int(o.PFactor)
			}
		}
	}
	L.analyzeSpans(st.rec.Recent(), trs, handlerNS)

	// The capabilities this window used, for timing capability.Verify.
	var caps []capability.Capability
	for _, lf := range liveSet(corpus, plan, w.Owned) {
		caps = append(caps, lf.cap)
	}
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}
	if err := L.timeLayout(images.selfPaths()[0], caps); err != nil {
		return nil, err
	}
	return L, nil
}

// analyzeSpans joins each window op's client Trans time, handler time and
// recorded engine/cache spans by trace ID.
func (L *Layers) analyzeSpans(traces []trace.Trace, trs []*meteredTransport, handlerNS [][]int64) {
	for i := range traces {
		t := &traces[i]
		if t.ID&trace.LocalIDBit != 0 {
			continue
		}
		conn, seq := splitTraceID(t.ID)
		if conn < 0 || conn >= len(trs) || seq < 0 || seq >= len(trs[conn].transNS) {
			continue
		}
		root := t.Root()
		if root == nil {
			continue
		}
		L.Traces++
		transNS, handler := trs[conn].transNS[seq], handlerNS[conn][seq]
		L.TransNS = append(L.TransNS, transNS)
		L.WireNS = append(L.WireNS, transNS-handler)
		var below int64
		for j := 0; j < t.N; j++ {
			sp := &t.Spans[j]
			if sp.Parent == root.ID && sp.Layer != trace.LayerRPC && sp.Dur >= 0 {
				below += sp.Dur
			}
			switch {
			case sp.Layer == trace.LayerEngine && sp.Op == trace.OpRead:
				L.EngineSelfNS[KindRead] = append(L.EngineSelfNS[KindRead], selfTime(t, j))
			case sp.Layer == trace.LayerEngine && sp.Op == trace.OpCreate:
				L.EngineSelfNS[KindCreate] = append(L.EngineSelfNS[KindCreate], selfTime(t, j))
			case sp.Layer == trace.LayerEngine && sp.Op == trace.OpDelete:
				L.EngineSelfNS[KindDelete] = append(L.EngineSelfNS[KindDelete], selfTime(t, j))
			case sp.Layer == trace.LayerCache && sp.Op == trace.OpCacheLookup:
				L.LookupSelfNS = append(L.LookupSelfNS, selfTime(t, j))
			}
		}
		L.HandleSelfNS = append(L.HandleSelfNS, handler-below)
	}
	for _, s := range [][]int64{L.TransNS, L.WireNS, L.HandleSelfNS, L.LookupSelfNS,
		L.EngineSelfNS[KindRead], L.EngineSelfNS[KindCreate], L.EngineSelfNS[KindDelete]} {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
}

// selfTime is span j's duration minus the part of its interval that its
// finished child spans cover.
func selfTime(t *trace.Trace, j int) int64 {
	p := &t.Spans[j]
	lo, hi := p.Start, p.Start+p.Dur
	type iv struct{ a, b int64 }
	var kids []iv
	for k := 0; k < t.N; k++ {
		c := &t.Spans[k]
		if k == j || c.Parent != p.ID || c.Dur < 0 {
			continue
		}
		a, b := max(c.Start, lo), min(c.Start+c.Dur, hi)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].a < kids[b].a })
	var covered, end int64 = 0, lo
	for _, k := range kids {
		if k.a > end {
			end = k.a
		}
		if k.b > end {
			covered += k.b - end
			end = k.b
		}
	}
	return p.Dur - covered
}

// timeLayout times layout.Load on the post-run image (median of five)
// and capability.Verify on the window's own capabilities, with the
// secrets read back from that image's inode table.
func (L *Layers) timeLayout(image string, caps []capability.Capability) error {
	dev, err := disk.OpenFile(image, blockSize)
	if err != nil {
		return err
	}
	defer dev.Close()
	var loads []float64
	var tbl *layout.Table
	for i := 0; i < 5; i++ {
		start := time.Now()
		t, _, err := layout.Load(dev)
		if err != nil {
			return fmt.Errorf("layout.Load on post-run image: %w", err)
		}
		loads = append(loads, float64(time.Since(start))/1e6)
		tbl = t
	}
	L.LoadMS = medianFloat(loads)

	type pair struct {
		c capability.Capability
		r capability.Random
	}
	var pairs []pair
	for _, c := range caps {
		ino, err := tbl.Get(c.Object)
		if err != nil {
			return fmt.Errorf("inode %d of a live capability: %w", c.Object, err)
		}
		pairs = append(pairs, pair{c, ino.Random})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no capabilities to verify")
	}
	const perBatch = 20000
	var batches []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			p := pairs[i%len(pairs)]
			if _, err := capability.Verify(p.c, p.r); err != nil {
				return fmt.Errorf("capability.Verify on a live capability: %w", err)
			}
		}
		batches = append(batches, float64(time.Since(start))/perBatch)
	}
	L.VerifyNS = medianFloat(batches)
	return nil
}

// histP50 is the median of a histogram's samples recorded between two
// snapshots (bucket counts subtracted), at the bucket's upper bound.
func histP50(c Counts, name string) float64 {
	a, b := c.before.Histograms[name], c.after.Histograms[name]
	if len(b.Counts) == 0 {
		return 0
	}
	d := make([]int64, len(b.Counts))
	var n int64
	for i := range b.Counts {
		d[i] = b.Counts[i]
		if i < len(a.Counts) {
			d[i] -= a.Counts[i]
		}
		n += d[i]
	}
	if n == 0 {
		return 0
	}
	// Interpolate linearly inside the bucket holding the middle sample.
	half := float64(n) / 2
	var cum int64
	for i, v := range d {
		if v > 0 && float64(cum+v) >= half {
			lo, hi := float64(0), float64(b.Max)
			if i > 0 {
				lo = float64(b.Bounds[i-1])
			}
			if i < len(b.Bounds) {
				hi = float64(b.Bounds[i])
			}
			return lo + (hi-lo)*(half-float64(cum))/float64(v)
		}
		cum += v
	}
	return float64(b.Max)
}
