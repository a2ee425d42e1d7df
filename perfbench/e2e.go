package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/stats"
)

// After the window, a run takes its set-up and restart samples in
// spreadRounds rounds, roundGap apart: each round sets up once more on
// fresh images (thrown away) and restarts bulletd restartsPerRound times
// on the run's own images. The host's speed swings from second to second,
// and a burst of samples taken back to back would all catch the same
// swing; spread over several seconds, their median does not.
const (
	spreadRounds     = 8
	restartsPerRound = 5
	roundGap         = 300 * time.Millisecond
)

func bulletdArgs(sp Spec, format bool) []string {
	args := []string{"-disks", strings.Join(childImages, ",")}
	if format {
		args = append(args, "-format")
	}
	args = append(args, "-listen", "127.0.0.1:0")
	if sp.CacheMB != defaultCacheMB {
		args = append(args, "-cache", strconv.FormatInt(sp.CacheMB, 10))
	}
	return args
}

// corpusContent generates the version-0 bytes of every corpus file. It
// is the benchmark's own work, done once before any timed set-up.
func corpusContent(plan Plan) *Corpus {
	c := &Corpus{seed: plan.Seed, files: make(map[uint32]liveFile), data: make(map[uint32][]byte)}
	for _, f := range plan.Corpus {
		b := make([]byte, f.Size)
		fillContent(b, plan.Seed, f.File, 0)
		c.data[f.File] = b
	}
	return c
}

// upload creates every corpus file through cl and waits for the
// server's write-through to drain.
func upload(cl *client.Client, plan Plan, c *Corpus) error {
	for _, f := range plan.Corpus {
		cp, err := cl.Create(servicePort, c.data[f.File], int(f.PFactor))
		if err != nil {
			return fmt.Errorf("set-up create of file %d: %w", f.File, err)
		}
		c.files[f.File] = liveFile{cap: cp, size: f.Size}
	}
	return cl.Sync(servicePort)
}

// setUp makes fresh images, starts bulletd formatting them and uploads
// the corpus: what a user waits for before the first request. bulletd
// logs to dir.
func setUp(bin, dir string, sp Spec, plan Plan, c *Corpus) (*bulletd, memImages, time.Duration, error) {
	start := time.Now()
	images, err := newMemImages()
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := startBulletd(bin, bulletdArgs(sp, true), filepath.Join(dir, "bulletd.log"), images)
	if err != nil {
		images.close()
		return nil, nil, 0, err
	}
	tr := dialTransport(srv.addr)
	defer tr.Close()
	if err := upload(client.New(tr), plan, c); err != nil {
		srv.kill()
		images.close()
		return nil, nil, 0, err
	}
	return srv, images, time.Since(start), nil
}

// Counts are the server counters the premise checks and per-layer
// metrics read, as deltas over a window.
type Counts struct {
	before, after stats.Snapshot
}

func (c Counts) delta(name string) int64 {
	if v, ok := c.after.Counters[name]; ok {
		return v - c.before.Counters[name]
	}
	return c.after.Gauges[name] - c.before.Gauges[name]
}

func (c Counts) hitRatio() float64 {
	h, m := c.delta("cache.hits"), c.delta("cache.misses")
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func (c Counts) String() string {
	return fmt.Sprintf("cache hits=%d misses=%d evictions=%d hit_ratio=%.4f; bullet.disk_compactions=%d; "+
		"replica0 reads=%d writes=%d; replica1 reads=%d writes=%d",
		c.delta("cache.hits"), c.delta("cache.misses"), c.delta("cache.evictions"), c.hitRatio(),
		c.delta("bullet.disk_compactions"),
		c.delta("disk.replica0.reads"), c.delta("disk.replica0.writes"),
		c.delta("disk.replica1.reads"), c.delta("disk.replica1.writes"))
}

// premise checks the workload's reason for existing held in this window.
func premise(sp Spec, c Counts) error {
	if r := c.hitRatio(); r < sp.HitMin || r > sp.HitMax {
		return fmt.Errorf("premise failed: cache hit ratio %.4f, want [%g, %g]", r, sp.HitMin, sp.HitMax)
	}
	// The image is large enough that on-demand disk compaction never
	// fires on any workload: compaction is absent by design, so any
	// compaction means the layout was not what the seed dictates.
	if n := c.delta("bullet.disk_compactions"); n != 0 {
		return fmt.Errorf("premise failed: %d disk compactions, want 0", n)
	}
	return nil
}

// E2E is an untraced run against a bulletd process.
type E2E struct {
	Setups      []float64 // seconds
	Window      Window
	Counts      Counts
	ServerCPUus float64 // bulletd utime+stime over the timed slices
	ClientCPUus float64 // this process's utime+stime over the timed slices
	ServerRSSMB float64
	Restarts    []float64 // seconds
}

func selfCPUMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// runE2E sets up, runs the timed window (the first perConn ops of each
// stream; -1 for all) over TCP with checks, then takes rounds rounds of
// set-up and restart samples (see spreadRounds), re-checking every live
// file after each restart.
func runE2E(bin, dir string, sp Spec, plan Plan, perConn, rounds int) (*E2E, error) {
	res := &E2E{}
	corpus := corpusContent(plan)
	var srv *bulletd
	var images memImages
	defer func() {
		if srv != nil {
			srv.kill()
		}
		images.close()
	}()
	srv, images, d, err := setUp(bin, dir, sp, plan, corpus)
	if err != nil {
		return nil, err
	}
	res.Setups = append(res.Setups, d.Seconds())
	anchor := corpus.files[anchorFile].cap

	adminTr := dialTransport(srv.addr)
	defer adminTr.Close()
	admin := client.New(adminTr)
	trs := make([]*meteredTransport, sp.Conns)
	for i := range trs {
		trs[i] = &meteredTransport{inner: dialTransport(srv.addr), conn: i}
		defer trs[i].inner.Close()
	}
	before, err := admin.Stats(anchor)
	if err != nil {
		return nil, fmt.Errorf("stats before window: %w", err)
	}
	// CPU times cover the timed slices only, not the warm-up.
	var cpu0, self0 float64
	var cpuErr error
	res.Window = runWindow(trs, corpus, plan, perConn, func() {
		cpu0, cpuErr = srv.cpuMicros()
		self0 = selfCPUMicros()
	})
	res.ClientCPUus = selfCPUMicros() - self0
	if cpuErr != nil {
		return nil, cpuErr
	}
	cpu1, err := srv.cpuMicros()
	if err != nil {
		return nil, err
	}
	res.ServerCPUus = cpu1 - cpu0
	if err := admin.Sync(servicePort); err != nil {
		return nil, fmt.Errorf("sync after window: %w", err)
	}
	after, err := admin.Stats(anchor)
	if err != nil {
		return nil, fmt.Errorf("stats after window: %w", err)
	}
	res.Counts = Counts{before: before, after: after}
	if res.ServerRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	live := liveSet(corpus, plan, res.Window.Owned)
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		time.Sleep(roundGap)
		d, err := spareSetUp(bin, dir, sp, plan, corpus)
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, d.Seconds())
		for i := 0; i < restartsPerRound; i++ {
			if err := restart(bin, dir, sp, images, corpus, live, res); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// spareSetUp times one more set-up, on images of its own that it then
// discards.
func spareSetUp(bin, dir string, sp Spec, plan Plan, corpus *Corpus) (time.Duration, error) {
	// The spare server's capabilities go into a corpus of their own, so
	// the run's capabilities stay as they are.
	spare := &Corpus{seed: corpus.seed, files: make(map[uint32]liveFile), data: corpus.data}
	srv, images, d, err := setUp(bin, dir, sp, plan, spare)
	if err != nil {
		return 0, err
	}
	err = srv.stop()
	images.close()
	return d, err
}

// restart starts bulletd on the run's images, times it until its first
// verified read, re-checks every live file and stops it again.
func restart(bin, dir string, sp Spec, images memImages, corpus *Corpus, live map[uint32]liveFile, res *E2E) error {
	start := time.Now()
	srv, err := startBulletd(bin, bulletdArgs(sp, false), filepath.Join(dir, "bulletd.log"), images)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	tr := dialTransport(srv.addr)
	err = verifyLive(client.New(tr), corpus, live, func() {
		res.Restarts = append(res.Restarts, time.Since(start).Seconds())
	})
	tr.Close()
	if err != nil {
		srv.kill()
		return fmt.Errorf("after restart %d: %w", len(res.Restarts)+1, err)
	}
	return srv.stop()
}

// verifyLive reads and checks the anchor file, calls first, then reads
// and checks every other live file. The anchor is 64 bytes, so the time
// to the first read does not depend on which size the seed gave a file.
func verifyLive(cl *client.Client, corpus *Corpus, live map[uint32]liveFile, first func()) error {
	if err := verifyFile(cl, corpus, anchorFile, live[anchorFile]); err != nil {
		return fmt.Errorf("first read: %w", err)
	}
	first()
	for f, lf := range live {
		if err := verifyFile(cl, corpus, f, lf); err != nil {
			return fmt.Errorf("re-check: %w", err)
		}
	}
	return nil
}

// liveSet is every file that should exist after the window: the corpus,
// with each connection's owned files at their final versions.
func liveSet(c *Corpus, plan Plan, owned []map[uint32]liveFile) map[uint32]liveFile {
	live := make(map[uint32]liveFile)
	for _, f := range plan.Corpus {
		if f.Owner < 0 {
			live[f.File] = c.files[f.File]
		}
	}
	for _, m := range owned {
		for f, lf := range m {
			live[f] = lf
		}
	}
	return live
}

func verifyFile(cl *client.Client, c *Corpus, file uint32, lf liveFile) error {
	if lf.cap == (capability.Capability{}) {
		return fmt.Errorf("file %d: no capability", file)
	}
	got, err := cl.Read(lf.cap)
	if err != nil {
		return fmt.Errorf("file %d.%d lost: %w", file, lf.version, err)
	}
	var scratch []byte
	if !bytes.Equal(got, c.contentFor(file, lf.version, lf.size, &scratch)) {
		return fmt.Errorf("file %d.%d: content mismatch", file, lf.version)
	}
	return nil
}
