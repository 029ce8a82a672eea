// Command e2ebench is Colony's end-to-end benchmark. It boots a whole
// deployment in-process (devices, PoP parents, DCs; simulated network or
// real loopback TCP), drives one workload open-loop on a seeded schedule,
// checks the outputs, and prints the user-visible metrics (or, with
// --trace 1, the per-layer breakdown) as one JSON object on its last line.
//
//	go run . --workload chat --seed 1 --seconds 20 --trace 0
//
// See METRICS.md for the workloads, the metrics and what moves them.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"colony/internal/obs"
)

// workload is one traffic mix. prepare generates the seeded actions and
// returns a function that boots a fresh deployment for them.
type workload struct {
	// rate is the offered load in actions per second, probeRate the
	// visibility probes per second. Both are fixed so that a run of a given
	// length always commits the same number of transactions: per-op cost
	// grows with the number a run commits.
	rate, probeRate float64
	prepare         func(seed int64, nActions, nProbes int, tmp string) ([]action, func() (env, error))
}

var workloads = map[string]workload{
	"chat": {rate: 600, probeRate: 100, prepare: func(seed int64, n, np int, _ string) ([]action, func() (env, error)) {
		tr := chatTrace(seed, n)
		return chatActions(tr), func() (env, error) { return setupChat(seed, tr, np, false) }
	}},
	"group-chat": {rate: 150, probeRate: 25, prepare: func(seed int64, n, np int, _ string) ([]action, func() (env, error)) {
		tr := chatTrace(seed, n)
		return chatActions(tr), func() (env, error) { return setupChat(seed, tr, np, true) }
	}},
	"ingest": {rate: 120, probeRate: 50, prepare: func(seed int64, n, np int, tmp string) ([]action, func() (env, error)) {
		return ingestActions(seed, n), func() (env, error) { return setupIngest(seed, tmp, np) }
	}},
	"mesh": {rate: 300, probeRate: 100, prepare: func(seed int64, n, np int, _ string) ([]action, func() (env, error)) {
		return meshActions(seed, n), func() (env, error) { return setupMesh(np) }
	}},
}

// Run shape. A run measures its window in rounds, each on a fresh
// deployment with its own slice of the seeded inputs, and reports each
// end-to-end metric as the median over the rounds: a round that hits one of
// the system's occasional stalls moves the median far less than it would
// move one long window. Set-up time is the median over the rounds' set-ups
// and the extra ones before the first round (see measure). Drivers never
// exceed two goroutines, so the load generator cannot take over a small
// machine.
const (
	rounds       = 5
	extraSetups  = 6
	maxDrivers   = 2
	drainTimeout = 30 * time.Second
	// A round is saturated when its generator falls behind through the
	// window or the process nears the machine's CPU capacity.
	saturatedLateGrowthMs = 20
	saturatedCPUShare     = 0.8
)

func main() {
	name := flag.String("workload", "chat", "workload: chat, group-chat, ingest or mesh")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds, over all rounds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced round")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// runConfig is the provenance of a run: what was run, where and on what.
type runConfig struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
	Rate         float64 `json:"actions_per_s"`
	ProbeRate    float64 `json:"probes_per_s"`
	Actions      int     `json:"actions_per_round"`
	Probes       int     `json:"probes_per_round"`
	Drivers      int     `json:"drivers"`
	Commit       string  `json:"commit"`
	SourceHash   string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	CPUModel     string  `json:"cpu_model"`
}

func run(name string, w workload, seed int64, seconds int, traced bool) error {
	tmp := os.Getenv("E2EBENCH_TMP")
	if tmp == "" {
		tmp = filepath.Join(".bench_build", "tmp")
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	window := time.Duration(seconds) * time.Second / rounds
	cfg := runConfig{
		Workload: name, Seed: seed, Seconds: seconds, Rounds: rounds, RoundSeconds: window.Seconds(),
		Rate: w.rate, ProbeRate: w.probeRate,
		Actions: int(w.rate * window.Seconds()), Probes: int(w.probeRate * window.Seconds()),
		Drivers: min(maxDrivers, runtime.NumCPU()), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	cfg.Commit, cfg.SourceHash = provenance()
	cfg.CPUModel = cpuModel()
	prov, _ := json.Marshal(cfg)
	fmt.Printf("provenance %s\n", prov)

	round := func(r int, traced, extra bool) (*result, error) {
		acts, setup := w.prepare(seed*rounds+int64(r), cfg.Actions, cfg.Probes, tmp)
		events := buildSchedule(cfg.Actions, cfg.Probes, window)
		return measure(cfg, acts, events, setup, traced, extra)
	}
	var results []*result
	var metrics []metric
	if traced {
		// The traced round replays the untraced round's inputs, so the two
		// differ only by the tracing.
		plain, err := round(0, false, false)
		if err != nil {
			return err
		}
		tr, err := round(0, true, false)
		if err != nil {
			return err
		}
		results = []*result{plain, tr}
		metrics = layerMetrics(tr, plain)
	} else {
		for r := 0; r < rounds; r++ {
			res, err := round(r, false, r == 0)
			if err != nil {
				return err
			}
			results = append(results, res)
			ms, _ := roundMetrics(res)
			fmt.Printf("round %d:", r)
			for _, m := range ms {
				fmt.Printf(" %s=%.4g", m.name, m.value)
			}
			fmt.Println()
		}
		metrics = endToEndMetrics(results)
	}
	attempted, failed := 0, 0
	var failures []string
	for _, res := range results {
		attempted += res.attempted
		failed += res.failed
		failures = append(failures, res.failures...)
		if res.saturated {
			fmt.Fprintf(os.Stderr, "e2ebench: round saturated (late growth %.1f ms, cpu %.2f cores)\n", res.lateGrowthMs, res.cpuUtil)
		}
	}
	for _, f := range failures {
		fmt.Printf("check failed: %s\n", f)
	}
	vals := map[string]any{}
	if len(failures) == 0 {
		for _, m := range metrics {
			fmt.Printf("metric %-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(failures) == 0, "attempted": attempted, "failed": failed, "metrics": vals,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failures) > 0 {
		return fmt.Errorf("%d output checks failed", len(failures))
	}
	return nil
}

// result is everything one measured round produced.
type result struct {
	setupS        []float64
	drive         driveResult
	attempted     int
	failed        int
	failures      []string
	wall          time.Duration
	cpu           time.Duration
	allocBytes    uint64
	gcCycles      uint32
	liveHeap      uint64
	before, after obs.Snapshot
	visibility    durations
	sameGroupVis  durations
	lateGrowthMs  float64
	cpuUtil       float64
	saturated     bool
	spans         spanStats
	cpuByPkg      map[string]int64
	gaugeMax      map[string]int64
}

// measure sets up the deployment, runs the schedule, lets the deployment
// settle and checks its outputs. With extra set, it first sets up and
// closes extraSetups deployments, timing each.
func measure(cfg runConfig, acts []action, events []event, setup func() (env, error), traced, extra bool) (*result, error) {
	res := &result{}
	var e env
	for i := 0; e == nil; i++ {
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if extra && i < extraSetups {
			d.close()
		} else {
			e = d
		}
	}
	defer e.close()
	reg := e.registry()

	var tracers []*tracer
	var prof bytes.Buffer
	stopSampler := func() {}
	runtime.GC()
	res.before = reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now().Add(10 * time.Millisecond)
	if traced {
		for i := 0; i < cfg.Drivers; i++ {
			tracers = append(tracers, newTracer(start, 4*len(events)/cfg.Drivers+16))
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		stopSampler = sampleGauges(reg, res)
	}
	cpu0 := processCPU()
	res.drive = drive(e, acts, events, cfg.Drivers, start, tracers)
	res.cpu = processCPU() - cpu0
	res.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.after = reg.Snapshot()
	if traced {
		pprof.StopCPUProfile()
		stopSampler()
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.liveHeap = ms2.HeapAlloc
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.cpuUtil = res.cpu.Seconds() / res.wall.Seconds()
	res.lateGrowthMs = lateGrowthMs(res.drive.late)
	res.saturated = res.lateGrowthMs > saturatedLateGrowthMs ||
		res.cpuUtil > saturatedCPUShare*float64(runtime.GOMAXPROCS(0))

	// Drain: every probe must reach every observer, then the deployment
	// must converge to exactly the posts issued. Each expected observation
	// counts as one attempted operation, failed if it never happens.
	deadline := time.Now().Add(drainTimeout)
	cross, same := e.observers()
	var expected, missing int64
	for _, o := range append(append([]*observer(nil), cross...), same...) {
		want := o.log.want()
		seen, _ := o.observed()
		for seen < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			seen, _ = o.observed()
		}
		expected += want
		if seen != want {
			missing += max(want-seen, 1)
			res.failures = append(res.failures, fmt.Sprintf("observer %s read probe value %d, want %d", o.name, seen, want))
		}
	}
	for _, o := range cross {
		_, lat := o.observed()
		res.visibility = append(res.visibility, lat...)
	}
	for _, o := range same {
		_, lat := o.observed()
		res.sameGroupVis = append(res.sameGroupVis, lat...)
	}
	res.failures = append(res.failures, e.settle(deadline)...)
	res.attempted = res.drive.attempted + cfg.Probes + int(expected)
	res.failed = res.drive.failed + res.drive.probesFailed + int(missing)
	for _, err := range res.drive.errs {
		res.failures = append(res.failures, "operation failed: "+err.Error())
	}

	if traced {
		res.spans = summarizeSpans(tracers)
		if out := os.Getenv("E2EBENCH_OUT"); out != "" {
			path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
			if err := writeSpans(path, tracers); err != nil {
				return nil, err
			}
		}
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.cpuByPkg = cpuByPackage(p)
	}
	return res, nil
}

// sampleGauges records the maxima of the queue-depth gauges during the
// window; the returned function stops it. A registry snapshot also
// evaluates every store's residency gauge, which walks the stores, so the
// sampler polls only every 500 ms and runs under the profile label that
// cpuByPackage reports as "sampler" rather than against the store.
func sampleGauges(reg *obs.Registry, res *result) func() {
	res.gaugeMax = map[string]int64{}
	names := []string{"dc.push_outbox_depth", "dc.repl_outbox_depth", "net.in_flight"}
	stop := make(chan struct{})
	done := make(chan struct{})
	go pprof.Do(context.Background(), pprof.Labels(samplerLabel, "1"), func(context.Context) {
		defer close(done)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				g := reg.Snapshot().Gauges
				for _, n := range names {
					res.gaugeMax[n] = max(res.gaugeMax[n], g[n])
				}
			}
		}
	})
	return func() { close(stop); <-done }
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one named reading.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func sampleNote(n int) string { return fmt.Sprintf("(n=%d)", n) }

// ops is the number of completed actions, the base of every per-op figure.
func (r *result) ops() float64 { return float64(r.drive.attempted - r.drive.failed) }

func (r *result) counterDelta(name string) float64 {
	return float64(r.after.Counters[name] - r.before.Counters[name])
}

// endToEndMetrics reports each metric as the median of its per-round
// values, set-up time as the median of every set-up. A round's tail
// latencies follow passing disturbances (a stall, a slow fsync, another
// tenant), so the median of per-round percentiles is far steadier than a
// percentile of all rounds' samples together.
func endToEndMetrics(rs []*result) []metric {
	var setups []float64
	perRound := make([][]metric, len(rs))
	samples := make([][]int, len(rs))
	for i, r := range rs {
		setups = append(setups, r.setupS...)
		perRound[i], samples[i] = roundMetrics(r)
	}
	out := []metric{{"setup_s", median(setups), "s", fmt.Sprintf("(median of %d)", len(setups))}}
	for j, m := range perRound[0] {
		vals := make([]float64, len(rs))
		n := 0
		for i := range rs {
			vals[i] = perRound[i][j].value
			n += samples[i][j]
		}
		out = append(out, metric{m.name, median(vals), m.unit, fmt.Sprintf("(median of %d rounds, n=%d)", len(rs), n)})
	}
	return out
}

// roundMetrics computes one round's end-to-end metrics but set-up time,
// with the number of samples behind each.
func roundMetrics(r *result) ([]metric, []int) {
	ops := r.ops()
	nLocal, nRemote, nVis := len(r.drive.local), len(r.drive.remote), len(r.visibility)
	return []metric{
		{"op_p50_us", r.drive.local.pct(0.5, time.Microsecond), "us", ""},
		{"remote_read_p50_ms", r.drive.remote.pct(0.5, time.Millisecond), "ms", ""},
		{"visibility_p50_ms", r.visibility.pct(0.5, time.Millisecond), "ms", ""},
		{"cpu_us_per_op", ratio(float64(r.cpu)/float64(time.Microsecond), ops), "us", ""},
		{"alloc_kb_per_op", ratio(float64(r.allocBytes)/1024, ops), "KiB", ""},
		{"live_heap_mb", float64(r.liveHeap) / (1 << 20), "MiB", ""},
		{"net_units_per_op", ratio(r.counterDelta("net.sent_units"), ops), "units", ""},
	}, []int{nLocal, nRemote, nVis, int(ops), int(ops), 1, int(ops)}
}

// cpuPackages are the layers the traced run's CPU profile is split into.
var cpuPackages = []string{
	"edge", "group", "epaxos", "dc", "clocksi", "replication", "wal", "store", "crdt",
	"vclock", "txn", "simnet", "tcp", "wire", "bin", "core", "chat", "obs", "transport",
	"runtime_gc", "driver", "sampler", "other",
}

// layerMetrics derives the per-layer breakdown of the traced run r; plain
// is the untraced run of the same schedule, for the tracing overhead.
func layerMetrics(r, plain *result) []metric {
	ops := r.ops()
	c := r.counterDelta
	h := func(name string) obs.Summary { return r.after.Histograms[name] }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	cpuPerOp := ratio(float64(r.cpu)/float64(time.Microsecond), ops)
	plainPerOp := ratio(float64(plain.cpu)/float64(time.Microsecond), plain.ops())
	sat := 0.0
	if r.saturated || plain.saturated {
		sat = 1
	}
	sp := r.spans
	us := func(s spanName) float64 { return sp.dur[s].pct(0.5, time.Microsecond) }
	msp := func(s spanName) float64 { return sp.dur[s].pct(0.5, time.Millisecond) }
	reads := c("edge.reads")
	misses := c("edge.group_hits") + c("edge.dc_fetches")
	commits := float64(r.drive.writes)
	out := []metric{
		{"gen.late_p99_ms", durations(r.drive.late).pct(0.99, time.Millisecond), "ms", sampleNote(len(r.drive.late))},
		{"gen.late_growth_ms", r.lateGrowthMs, "ms", ""},
		{"gen.cpu_util", r.cpuUtil, "cores", ""},
		{"gen.saturated", sat, "bool", ""},
		{"error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio", sampleNote(r.attempted)},
		{"trace.cpu_us_per_op", cpuPerOp, "us", ""},
		{"trace.overhead_us_per_op", cpuPerOp - plainPerOp, "us", ""},
		{"samples.op", float64(len(r.drive.local)), "count", ""},
		{"samples.remote_read", float64(len(r.drive.remote)), "count", ""},
		{"samples.visibility", float64(len(r.visibility)), "count", ""},
		// The tails are per-layer readings: on a small shared machine their
		// run-to-run spread is wider than any bound an end-to-end metric
		// may have.
		{"remote_read_p95_ms", r.drive.remote.pct(0.95, time.Millisecond), "ms", sampleNote(len(r.drive.remote))},
		{"visibility_p95_ms", r.visibility.pct(0.95, time.Millisecond), "ms", sampleNote(len(r.visibility))},

		{"edge.read_cache_us_p50", us(spEdgeReadCache), "us", sampleNote(len(sp.dur[spEdgeReadCache]))},
		{"edge.cache_hit_ratio", ratio(c("edge.cache_hits"), reads), "ratio", ""},
		{"edge.read_dc_ms_p50", msp(spEdgeReadDC), "ms", sampleNote(len(sp.dur[spEdgeReadDC]))},
		{"edge.read_group_ms_p50", msp(spEdgeReadGroup), "ms", sampleNote(len(sp.dur[spEdgeReadGroup]))},
		{"edge.commit_us_p50", us(spEdgeCommit), "us", sampleNote(len(sp.dur[spEdgeCommit]))},
		{"edge.commit_to_ack_ms_p50", ms(h("edge.commit_to_ack_ns").P50), "ms", ""},
		{"edge.commit_to_ack_ms_p99", ms(h("edge.commit_to_ack_ns").P99), "ms", ""},
		{"edge.commit_to_kstable_ms_p50", ms(h("edge.commit_to_kstable_ns").P50), "ms", ""},
		{"edge.nacks", c("edge.tx_nacked"), "count", ""},

		{"group.hit_ratio", ratio(c("edge.group_hits"), misses), "ratio", ""},
		{"group.visibility_ms_p50", r.sameGroupVis.pct(0.5, time.Millisecond), "ms", sampleNote(len(r.sameGroupVis))},
		{"epaxos.msgs_per_proposal", ratio(c("group.epaxos_msgs"), c("group.epaxos_proposed")), "msgs", ""},
		// Every command executes at each member and at the group's parent.
		{"epaxos.exec_backlog", c("group.epaxos_proposed") - c("group.epaxos_executed")/(groupSize+1), "cmds", ""},

		{"dc.commit_us_p50", us(spDCCommit), "us", sampleNote(len(sp.dur[spDCCommit]))},
		{"dc.nack_ratio", ratio(c("dc.edge_nacks"), c("dc.edge_commits")), "ratio", ""},
		{"dc.push_sends_per_commit", ratio(c("dc.push_sends"), commits), "sends", ""},
		{"dc.push_shared_ratio", ratio(c("dc.push_frames_shared"), c("dc.push_frames_shared")+c("dc.push_frames_built")), "ratio", ""},
		{"dc.push_fanout_p50", float64(h("dc.push_shard_fanout").P50), "subs", ""},
		{"dc.tree_repairs", c("dc.tree_repairs"), "count", ""},
		{"dc.push_outbox_depth_max", float64(r.gaugeMax["dc.push_outbox_depth"]), "txs", ""},

		{"repl.propagation_ms_p50", ms(h("dc.repl_propagation_ns").P50), "ms", ""},
		{"repl.propagation_ms_p99", ms(h("dc.repl_propagation_ns").P99), "ms", ""},
		{"repl.batch_txs_p50", float64(h("dc.repl_batch_txs").P50), "txs", ""},
		{"repl.stub_ratio", ratio(c("dc.repl_stub_txs"), c("dc.repl_stub_txs")+c("dc.repl_full_txs")), "ratio", ""},
		{"repl.skipped_buckets", c("dc.repl_skipped_buckets"), "count", ""},
		{"repl.backfills", c("dc.backfills"), "count", ""},
		{"repl.bucket_evictions", c("dc.bucket_evictions"), "count", ""},
		{"repl.outbox_depth_max", float64(r.gaugeMax["dc.repl_outbox_depth"]), "txs", ""},

		{"wal.flush_ms_p50", ms(h("wal.flush_ns").P50), "ms", ""},
		{"wal.flush_ms_p99", ms(h("wal.flush_ns").P99), "ms", ""},
		{"wal.batch_txs_p50", float64(h("wal.batch_txs").P50), "txs", ""},
		{"wal.fsyncs_per_append", ratio(c("wal.fsyncs"), c("wal.appends")), "ratio", ""},
		{"wal.errors", c("dc.wal_errors"), "count", ""},

		{"store.cache_hit_ratio", ratio(c("store.cache_hit"), c("store.cache_hit")+c("store.cache_miss")), "ratio", ""},
		{"store.max_journal_len", float64(r.after.Gauges["store.max_journal_len"]), "entries", ""},
		{"store.base_advances", c("store.base_advance"), "count", ""},
		{"store.resident_mb", float64(r.after.Gauges["store.resident_bytes"]) / (1 << 20), "MiB", ""},
		{"crdt.cow_copies", float64(r.after.Gauges["crdt.cow_copies"] - r.before.Gauges["crdt.cow_copies"]), "count", ""},

		{"net.msgs_per_op", ratio(c("net.sent"), ops), "msgs", ""},
		{"net.dropped", c("net.dropped"), "count", ""},
		{"net.in_flight_max", float64(r.gaugeMax["net.in_flight"]), "msgs", ""},
		{"net.frames_per_flush", ratio(c("net.sent"), c("net.flushes")), "frames", ""},

		{"gc.cycles_per_1k_ops", ratio(1000*float64(r.gcCycles), ops), "count", ""},
	}
	for _, layer := range []string{"app", "core", "edge", "dc", "transport"} {
		out = append(out, metric{"span." + layer + ".self_us_per_op",
			ratio(float64(sp.selfByLayer[layer])/float64(time.Microsecond), ops), "us", ""})
	}
	for _, pkg := range cpuPackages {
		out = append(out, metric{"cpu." + pkg, ratio(float64(r.cpuByPkg[pkg])/1e3, ops), "us", ""})
	}
	return out
}

// provenance returns the checked-out commit (when the checkout is a git
// repository) and a SHA-256 over the program's Go sources and go.mod files,
// which identifies the code even without git.
func provenance() (commit, sum string) {
	commit = "unknown"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := string(bytes.TrimSpace(head))
		if r, ok := bytes.CutPrefix([]byte(ref), []byte("ref: ")); ok {
			if id, err := os.ReadFile(filepath.Join(".git", string(r))); err == nil {
				ref = string(bytes.TrimSpace(id))
			}
		}
		commit = ref
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (filepath.Ext(path) == ".go" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return commit, hashFiles(files)
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

// hashFiles returns the hex SHA-256 of the files' names and contents.
func hashFiles(files []string) string {
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
