// Command perfbench is the repository's wall-clock benchmark: a client
// driving bulletd over loopback TCP in a closed loop, on three workloads
// (hot-small, cold-bulk, churn), plus a traced in-process run that splits
// the time per layer. See README.md for workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds
// bulletd and this command from source:
//
//	bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-small, cold-bulk or churn")
		seed    = flag.Int64("seed", 1, "seed every input derives from")
		seconds = flag.Int("seconds", 10, "nominal run length; fixes the op count")
		traced  = flag.Int("trace", 0, "1: per-layer traced run instead of end-to-end metrics")
		bin     = flag.String("bulletd", "", "bulletd binary (run.sh builds it)")
		work    = flag.String("workdir", "", "directory for bulletd logs (run.sh puts it under .bench_build)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, bin, work string) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-bulletd and -workdir are required (use run.sh)")
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	plan := MakePlan(sp, seed, seconds)
	fmt.Printf("host: nproc=%d go=%s GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Printf("bulletd flags: %s\n", strings.Join(bulletdArgs(sp, true), " "))
	var corpusBytes int64
	for _, f := range plan.Corpus {
		corpusBytes += int64(f.Size)
	}
	fmt.Printf("workload %s seed %d: %d connection(s), closed loop, plan digest %s, corpus %d files / %.2f MB, bulletd cache %d MB\n",
		sp.Name, seed, sp.Conns, plan.Digest(), len(plan.Corpus), float64(corpusBytes)/1e6, sp.CacheMB)

	var res Result
	if traced {
		res, err = tracedRun(bin, dir, sp, plan)
	} else {
		res, err = endToEnd(bin, dir, sp, plan)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run failed its checks")
	}
	return nil
}

// checkTally compares what a window did against what the plan dictates.
func checkTally(got, want Tally) error {
	fmt.Printf("op counts: %s\n", got)
	if got != want {
		return fmt.Errorf("determinism check failed: plan dictates %s", want)
	}
	return nil
}

func us(ns float64) float64 { return ns / 1e3 }

// minTailSamples is the fewest samples of an op kind a run must hold for
// its p99 to be printed.
const minTailSamples = 1000

func endToEnd(bin, dir string, sp Spec, plan Plan) (Result, error) {
	e, err := runE2E(bin, dir, sp, plan, -1, spreadRounds)
	if err != nil {
		return Result{}, err
	}
	w := e.Window
	ops := w.Tally.Total()
	res := Result{Correct: true, Attempted: ops, Failed: w.Failed, Metrics: map[string]Metric{}}
	for _, msg := range w.Errs {
		fmt.Println("error:", msg)
	}
	if w.Failed > 0 {
		res.Correct = false
	}
	if err := checkTally(w.Tally, plan.Expect(-1)); err != nil {
		fmt.Println(err)
		res.Correct = false
	}
	fmt.Printf("bulletd counters over window: %s\n", e.Counts)
	if err := premise(sp, e.Counts); err != nil {
		fmt.Println(err)
		res.Correct = false
	}

	m := res.Metrics
	m["setup_s"] = Metric{medianFloat(e.Setups), "s"}
	m["ops_per_s"] = Metric{w.opsPerSec(), "1/s"}
	m["mb_per_s"] = Metric{w.medianOverChunks(func(c Chunk) float64 { return float64(c.Bytes) / 1e6 / c.Elapsed.Seconds() }), "MB/s"}
	for k := Kind(0); k < numKinds; k++ {
		if len(w.Lat[k]) == 0 {
			fmt.Printf("%s latency: no samples\n", k)
			continue
		}
		m[k.String()+"_p50_us"] = Metric{us(w.medianOverChunks(func(c Chunk) float64 { return quantile(c.Lat[k], 0.50) })), "us"}
		if p90, _, ok := w.tail(k, 0.90); ok {
			m[k.String()+"_p90_us"] = Metric{us(p90), "us"}
		}
		// The p99 is printed beside its sample count, where there are at
		// least minTailSamples, but not gated: its spread across runs is
		// the host's rare stalls more than bulletd's tail.
		fmt.Printf("%s latency: %d samples", k, len(w.Lat[k]))
		if p99, groups, ok := w.tail(k, 0.99); ok && len(w.Lat[k]) >= minTailSamples {
			fmt.Printf(", p99 %.1f us (median of %d groups)", us(p99), groups)
		}
		fmt.Println()
	}
	m["ok_ops_pct"] = Metric{100 * float64(ops-w.Failed) / float64(ops), "%"}
	m["server_cpu_us_per_op"] = Metric{e.ServerCPUus / float64(w.timedOps()), "us"}
	m["server_rss_mb"] = Metric{e.ServerRSSMB, "MB"}
	m["restart_s"] = Metric{medianFloat(e.Restarts), "s"}
	fmt.Printf("setups %v s; restarts %v s; window %.3f s\n", e.Setups, e.Restarts, w.Elapsed.Seconds())
	fmt.Print("slices (ops_per_s/host steal %):")
	for _, c := range w.Chunks {
		fmt.Printf(" %.0f/%.1f", float64(c.Ops)/c.Elapsed.Seconds(), 100*c.Steal)
	}
	fmt.Println()
	printMetrics(m)
	return res, nil
}

func tracedRun(bin, dir string, sp Spec, plan Plan) (Result, error) {
	// Trace mode runs the first perConn ops of each stream three times:
	// over TCP to a bulletd process, where the load generator's own CPU
	// is measured; then against the same stack built in-process, once
	// as bulletd has it and once with the benchmark's hooks and spans.
	// The last two rates give the tracing overhead.
	perConn := tracedOps / sp.Conns
	want := plan.Expect(perConn)
	e, err := runE2E(bin, dir, sp, plan, perConn, 0)
	if err != nil {
		return Result{}, err
	}
	base, err := runInProcess(sp, plan, perConn, false)
	if err != nil {
		return Result{}, err
	}
	L, err := runInProcess(sp, plan, perConn, true)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Correct:   e.Window.Failed+base.Failed+L.Failed == 0,
		Attempted: e.Window.Tally.Total() + base.Ops + L.Ops,
		Failed:    e.Window.Failed + base.Failed + L.Failed,
		Metrics:   map[string]Metric{},
	}
	for _, msg := range append(append(e.Window.Errs, base.Errs...), L.Errs...) {
		fmt.Println("error:", msg)
	}
	for _, got := range []Tally{e.Window.Tally, base.Tally, L.Tally} {
		if err := checkTally(got, want); err != nil {
			fmt.Println(err)
			res.Correct = false
		}
	}
	fmt.Printf("bulletd counters over window: %s\n", e.Counts)
	fmt.Printf("traced window: %d ops, %d traces joined\n", L.Ops, L.Traces)
	for _, c := range []Counts{e.Counts, base.Counts, L.Counts} {
		if err := premise(sp, c); err != nil {
			fmt.Println(err)
			res.Correct = false
		}
	}
	if L.Traces != int(L.Ops) {
		fmt.Printf("trace join incomplete: %d of %d ops\n", L.Traces, L.Ops)
		res.Correct = false
	}

	ops := float64(L.Ops)
	creates := float64(L.Tally.Ops[KindCreate])
	// Counts come from the bulletd process (its STATS before and after
	// the window), times from the traced in-process stack.
	c := e.Counts
	e2eOps := float64(e.Window.Tally.Total())
	m := res.Metrics
	m["client.trans_us"] = Metric{us(quantile(L.TransNS, 0.5)), "us"}
	m["rpc.wire_us"] = Metric{us(quantile(L.WireNS, 0.5)), "us"}
	m["rpc.wire_bytes_per_payload_byte"] = Metric{float64(L.WireBytes) / float64(L.PayloadBytes), "ratio"}
	m["bulletsvc.handle_self_us"] = Metric{us(quantile(L.HandleSelfNS, 0.5)), "us"}
	m["capability.verify_ns"] = Metric{L.VerifyNS, "ns"}
	m["bullet.read_self_us"] = Metric{us(quantile(L.EngineSelfNS[KindRead], 0.5)), "us"}
	m["bullet.create_self_us"] = Metric{us(quantile(L.EngineSelfNS[KindCreate], 0.5)), "us"}
	m["bullet.delete_self_us"] = Metric{us(quantile(L.EngineSelfNS[KindDelete], 0.5)), "us"}
	m["bullet.read_copies_per_read"] = Metric{ratio(c.delta("bullet.read_copies"), c.delta("bullet.reads")), "ratio"}
	m["bullet.fault_merges"] = Metric{float64(c.delta("bullet.fault_merges")), "count"}
	m["cache.hit_ratio"] = Metric{c.hitRatio(), "ratio"}
	m["cache.evictions_per_op"] = Metric{float64(c.delta("cache.evictions")) / e2eOps, "ratio"}
	m["cache.lookup_self_us"] = Metric{us(quantile(L.LookupSelfNS, 0.5)), "us"}
	m["cache.compactions"] = Metric{float64(c.delta("cache.compactions")), "count"}
	m["alloc.disk_compactions"] = Metric{float64(c.delta("bullet.disk_compactions")), "count"}
	free := c.after.Gauges["bullet.data_blocks_free"]
	m["alloc.largest_free_pct"] = Metric{100 * ratio(c.after.Gauges["bullet.data_largest_free"], free), "%"}
	m["layout.load_ms"] = Metric{L.LoadMS, "ms"}
	m["disk.device_read_us_per_op"] = Metric{us(float64(L.Dev.readNS)) / ops, "us"}
	m["disk.device_write_us_per_op"] = Metric{us(float64(L.Dev.writeNS)) / ops, "us"}
	m["disk.device_writes_per_create"] = Metric{float64(L.Dev.writes) / creates, "count"}
	m["disk.device_bytes_written_per_created_byte"] = Metric{float64(L.Dev.writeBytes) / float64(L.CreatedBytes), "ratio"}
	m["disk.commit_p50_us"] = Metric{us(histP50(c, fmt.Sprintf("bullet.commit_ns.p%d", L.CreatePF))), "us"}
	m["runtime.allocs_per_op"] = Metric{float64(L.Mallocs) / ops, "count"}
	m["runtime.alloc_bytes_per_op"] = Metric{float64(L.AllocBytes) / ops, "B"}
	m["runtime.gc_per_kop"] = Metric{1000 * float64(L.GCs) / ops, "count"}
	m["bench.trace_overhead_pct"] = Metric{100 * (base.OpsPerSec - L.OpsPerSec) / base.OpsPerSec, "%"}
	m["bench.client_cpu_us_per_op"] = Metric{e.ClientCPUus / float64(e.Window.timedOps()), "us"}
	fmt.Printf("ops_per_s: bulletd process %.1f, in-process untraced %.1f, traced %.1f\n",
		e.Window.opsPerSec(), base.OpsPerSec, L.OpsPerSec)
	printMetrics(m)
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(m map[string]Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
