// Command colony-bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated testbed:
//
//	colony-bench fig4    # throughput vs response time (6 configurations)
//	colony-bench fig5    # DC disconnection timeline
//	colony-bench fig6    # peer-group disconnection timeline
//	colony-bench fig7    # migration / group synchronisation timeline
//	colony-bench claims    # headline numbers (§1, §7.3)
//	colony-bench ablations # K-stability / commit-variant / group-size / cache
//	colony-bench fanout    # sharded push fan-out at 1k/10k/100k subscribers
//	colony-bench tree      # tree-multicast vs direct-sharded A/B (DC egress)
//	colony-bench partial   # full vs interest-scoped replication A/B (WAN units)
//	colony-bench all       # everything, in order (fanout/tree/partial excluded:
//	                       # run them explicitly or via make bench-fanout /
//	                       # bench-tree / bench-partial)
//
// Output is printed as aligned tables plus CSV blocks that plot directly.
// --scale accelerates the modelled network (0.1 = 10× faster than the
// paper's wall-clock; results are reported in model time).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"colony/internal/bench"
	"colony/internal/edge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "colony-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("colony-bench", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 0.1, "latency scale (0.1 = 10x accelerated)")
		maxClients = fs.Int("max-clients", 256, "largest client count in the fig4 sweep")
		actions    = fs.Int("actions", 20, "closed-loop actions per client (fig4)")
		duration   = fs.Duration("duration", 70*time.Second, "timeline length in model time (fig5-7)")
		seed       = fs.Int64("seed", 1, "workload seed")
		quick      = fs.Bool("quick", false, "small configurations for a fast sanity run")
		obsDump    = fs.Bool("obs", true, "print the per-run instrumentation snapshot after each fig4 point")
		fanSizes   = fs.String("fanout-sizes", "1000,10000,100000", "comma-separated subscriber populations for the fanout run")
		fanCommits = fs.Int("fanout-commits", 64, "transactions committed per fanout run")
		treeSizes  = fs.String("tree-sizes", "1000,10000,100000", "comma-separated subscriber populations for the tree A/B")
		treeDeg    = fs.Int("tree-degree", 16, "children per subtree root")
		treeOut    = fs.String("tree-out", "BENCH_tree.json", "output file for the tree A/B record")
		partSizes  = fs.String("partial-buckets", "64,512,4096", "comma-separated bucket universes for the partial-replication A/B")
		partTxs    = fs.Int("partial-commits", 6000, "transactions committed per partial run")
		partOut    = fs.String("partial-out", "BENCH_partial.json", "output file for the partial-replication A/B record")
		fullRepl   = fs.Bool("fullrepl", false, "partial: run only the full-replication baseline (no A/B, no acceptance checks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if *quick {
		*maxClients = 32
		*actions = 10
		*duration = 20 * time.Second
		*fanSizes = "500,2000"
		*treeSizes = "500,2000"
		*partSizes = "64,512"
		*partTxs = 1500
	}

	progress := func(msg string) { fmt.Fprintf(os.Stderr, "… %s\n", msg) }

	fig4cfg := bench.Fig4Config{
		ClientCounts:     clientSweep(*maxClients),
		ActionsPerClient: *actions,
		Scale:            *scale,
		Seed:             *seed,
	}
	tlcfg := bench.TimelineConfig{
		Duration:    *duration,
		FirstEvent:  *duration * 25 / 70,
		SecondEvent: *duration * 45 / 70,
		Scale:       *scale,
		Seed:        *seed,
	}

	var fig4 []bench.Fig4Point
	var fig5 *bench.TimelineResult
	switch cmd {
	case "fig4":
		pts, err := bench.RunFig4(fig4cfg, progress)
		if err != nil {
			return err
		}
		printFig4(pts, *obsDump)
	case "fig5":
		res, err := bench.RunFig5(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 5 — impact of a DC disconnection", res)
	case "fig6":
		res, err := bench.RunFig6(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 6 — impact of a peer-group disconnection", res)
	case "fig7":
		res, err := bench.RunFig7(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 7 — synchronising with a peer group", res)
	case "ablations":
		return runAblations(*scale, *seed)
	case "fanout":
		return runFanout(*fanSizes, *fanCommits, *seed, progress)
	case "tree":
		return runTree(*treeSizes, *fanCommits, *treeDeg, *treeOut, *seed, progress)
	case "partial":
		return runPartial(*partSizes, *partTxs, *partOut, *fullRepl, *seed, progress)
	case "claims", "all":
		pts, err := bench.RunFig4(fig4cfg, progress)
		if err != nil {
			return err
		}
		fig4 = pts
		res5, err := bench.RunFig5(tlcfg, progress)
		if err != nil {
			return err
		}
		fig5 = res5
		if cmd == "all" {
			printFig4(fig4, *obsDump)
			printTimeline("Figure 5 — impact of a DC disconnection", fig5)
			res6, err := bench.RunFig6(tlcfg, progress)
			if err != nil {
				return err
			}
			printTimeline("Figure 6 — impact of a peer-group disconnection", res6)
			res7, err := bench.RunFig7(tlcfg, progress)
			if err != nil {
				return err
			}
			printTimeline("Figure 7 — synchronising with a peer group", res7)
		}
		printClaims(bench.DeriveClaims(fig4, fig5))
	default:
		return fmt.Errorf("unknown command %q (fig4|fig5|fig6|fig7|claims|ablations|fanout|tree|partial|all)", cmd)
	}
	return nil
}

// runAblations prints the design-choice studies of DESIGN.md §6.
func runAblations(scale float64, seed int64) error {
	fmt.Println("\n== Ablation: K-stability threshold (§3.8) ==")
	fmt.Printf("%4s %22s %22s\n", "K", "visibility median(ms)", "visibility p95(ms)")
	ks, err := bench.AblationKStability(nil, 20, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range ks {
		fmt.Printf("%4d %22.1f %22.1f\n", r.K, r.VisibilityLag.MedianMs, r.VisibilityLag.P95Ms)
	}

	fmt.Println("\n== Ablation: peer-group commit variant (§5.1.4) ==")
	fmt.Printf("%8s %18s %18s\n", "variant", "commit median(ms)", "commit p95(ms)")
	cv, err := bench.AblationCommitVariant(4, 30, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range cv {
		fmt.Printf("%8s %18.2f %18.2f\n", r.Variant, r.Commit.MedianMs, r.Commit.P95Ms)
	}

	fmt.Println("\n== Ablation: peer-group size ==")
	fmt.Printf("%6s %20s %22s\n", "size", "group fetch med(ms)", "propagation med(ms)")
	gs, err := bench.AblationGroupSize(nil, 12, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range gs {
		fmt.Printf("%6d %20.2f %22.2f\n", r.Size, r.GroupFetch.MedianMs, r.Propagation.MedianMs)
	}

	fmt.Println("\n== Ablation: cache capacity (LRU, §6.1) ==")
	fmt.Printf("%8s %10s\n", "limit", "hit rate")
	cs, err := bench.AblationCacheSize(nil, 150, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range cs {
		fmt.Printf("%8d %9.1f%%\n", r.Limit, 100*r.HitRate)
	}
	return nil
}

// runFanout runs the interest-sharded push fan-out (DESIGN.md §4e) at each
// population and prints delivered-txs/s, allocation cost and frame sharing.
// The per-subscriber baseline it was once compared against is retired; the
// recorded comparison stays in BENCH_fanout.json. Acceptance: zero delivery
// violations.
func runFanout(sizesCSV string, commits int, seed int64, progress func(string)) error {
	var sizes []int
	for _, f := range strings.Split(sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -fanout-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)

	var runs []bench.FanoutResult
	for _, size := range sizes {
		r, err := bench.RunFanout(bench.FanoutConfig{Subscribers: size, Commits: commits, Seed: seed}, progress)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}

	fmt.Println("\n== Push fan-out — interest-sharded (Zipf-skewed interest) ==")
	fmt.Printf("%10s %16s %12s %8s %8s %11s\n",
		"subs", "sharded(tx/s)", "allocs/tx", "shards", "shared%", "violations")
	for _, r := range runs {
		sharedPct := 0.0
		if total := r.FramesBuilt + r.FramesShared; total > 0 {
			sharedPct = 100 * float64(r.FramesShared) / float64(total)
		}
		fmt.Printf("%10d %16.0f %12.1f %8d %7.1f%% %11d\n",
			r.Subscribers, r.DeliveredPerSec, r.AllocsPerTx, r.Shards, sharedPct, r.Violations)
	}
	for _, r := range runs {
		if r.Violations > 0 {
			return fmt.Errorf("fanout: %d delivery violations at %d subscribers", r.Violations, r.Subscribers)
		}
	}
	return nil
}

// treeRun is one population point of the recorded tree-multicast A/B.
type treeRun struct {
	Subscribers int              `json:"subscribers"`
	Direct      bench.TreeResult `json:"direct_sharded"`
	Tree        bench.TreeResult `json:"tree"`
	// EgressReduction is direct over tree on DC-sent units (higher = more
	// DC egress absorbed by the relay layer).
	EgressReduction float64 `json:"egress_reduction"`
	// ThroughputRatio is tree over direct on delivered-txs/s; acceptance
	// requires >= 0.8 (within 20% of direct).
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// runTree records the tree-multicast vs direct-sharded push A/B (DESIGN.md
// §4g) to outPath. Acceptance: zero delivery violations in both modes, ≥5×
// fewer DC-sent units for tree mode at the largest population, and tree-mode
// delivered-txs/s within 20% of direct.
func runTree(sizesCSV string, commits, degree int, outPath string, seed int64, progress func(string)) error {
	var sizes []int
	for _, f := range strings.Split(sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -tree-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)

	// Simnet benches are wall-clock paced, so single runs are noisy; take
	// the best of two attempts per mode (slowdowns from machine load are
	// one-sided, violations are checked on every attempt).
	best := func(cfg bench.TreeConfig) (bench.TreeResult, error) {
		r1, err := bench.RunTree(cfg, progress)
		if err != nil {
			return r1, err
		}
		r2, err := bench.RunTree(cfg, progress)
		if err != nil {
			return r2, err
		}
		if r1.Violations+r2.Violations > 0 {
			r1.Violations += r2.Violations
			return r1, nil
		}
		if r2.DeliveredPerSec > r1.DeliveredPerSec {
			return r2, nil
		}
		return r1, nil
	}

	var runs []treeRun
	for _, size := range sizes {
		cfg := bench.TreeConfig{Subscribers: size, Commits: commits, Degree: degree, Seed: seed}
		cfg.Direct = true
		direct, err := best(cfg)
		if err != nil {
			return err
		}
		cfg.Direct = false
		tree, err := best(cfg)
		if err != nil {
			return err
		}
		run := treeRun{Subscribers: size, Direct: direct, Tree: tree}
		if tree.DCSentUnits > 0 {
			run.EgressReduction = float64(direct.DCSentUnits) / float64(tree.DCSentUnits)
		}
		if direct.DeliveredPerSec > 0 {
			run.ThroughputRatio = tree.DeliveredPerSec / direct.DeliveredPerSec
		}
		runs = append(runs, run)
	}

	fmt.Println("\n== Tree multicast A/B — direct-sharded vs subtree relays (Zipf-skewed interest) ==")
	fmt.Printf("%10s %14s %14s %9s %14s %12s %12s %8s\n",
		"subs", "direct(sent)", "tree(sent)", "reduct", "relay(sent)", "direct(tx/s)", "tree(tx/s)", "ratio")
	for _, r := range runs {
		fmt.Printf("%10d %14d %14d %8.1fx %14d %12.0f %12.0f %8.2f\n",
			r.Subscribers, r.Direct.DCSentUnits, r.Tree.DCSentUnits, r.EgressReduction,
			r.Tree.RelaySentUnits, r.Direct.DeliveredPerSec, r.Tree.DeliveredPerSec, r.ThroughputRatio)
	}

	out := struct {
		Generated string `json:"generated"`
		Bench     string `json:"bench"`
		Config    struct {
			Commits int     `json:"commits"`
			Buckets int     `json:"buckets"`
			ZipfS   float64 `json:"zipf_s"`
			Degree  int     `json:"degree"`
			DCs     int     `json:"dcs"`
			K       int     `json:"k"`
		} `json:"config"`
		Runs []treeRun `json:"runs"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Bench:     "tree multicast A/B: Zipf-skewed interest, direct-sharded baseline vs bounded-degree subtree relays (DC-sent units = every frame the DC put on the wire)",
		Runs:      runs,
	}
	out.Config.Commits = commits
	out.Config.Buckets = 64
	out.Config.ZipfS = 1.2
	out.Config.Degree = degree
	out.Config.DCs = 1
	out.Config.K = 1
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)

	for _, r := range runs {
		if v := r.Direct.Violations + r.Tree.Violations; v > 0 {
			return fmt.Errorf("tree: %d delivery violations at %d subscribers", v, r.Subscribers)
		}
	}
	last := runs[len(runs)-1]
	if last.EgressReduction < 5 {
		return fmt.Errorf("tree: DC egress reduction %.2fx at %d subscribers, acceptance requires >=5x",
			last.EgressReduction, last.Subscribers)
	}
	if last.ThroughputRatio < 0.8 {
		return fmt.Errorf("tree: delivered-txs/s ratio %.2f at %d subscribers, acceptance requires >=0.8",
			last.ThroughputRatio, last.Subscribers)
	}
	return nil
}

// partialRun is one bucket-universe point of the recorded partial-replication
// A/B.
type partialRun struct {
	Buckets int                 `json:"buckets"`
	Full    bench.PartialResult `json:"full"`
	Partial bench.PartialResult `json:"partial"`
	// WANReduction is full over partial on simnet sent units (higher = more
	// replication payload replaced by metadata stubs).
	WANReduction float64 `json:"wan_reduction"`
	// ThroughputRatio is partial over full on commit tx/s; acceptance
	// requires >= 0.9 (within 10% of full replication).
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// runPartial records the full-replication vs interest-scoped (partial)
// replication A/B (DESIGN.md §4h) to outPath. Acceptance: zero convergence
// violations in both modes, ≥5× fewer WAN units for partial mode at the
// largest bucket universe, per-DC residency proportional to the interest
// share, and partial-mode tx/s within 10% of full. With -fullrepl only the
// full baseline runs (no A/B record, no acceptance checks).
func runPartial(sizesCSV string, commits int, outPath string, fullOnly bool, seed int64, progress func(string)) error {
	var sizes []int
	for _, f := range strings.Split(sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -partial-buckets entry %q", f)
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)

	// Simnet benches are wall-clock paced, so single runs are noisy; take
	// the best of two attempts per mode (slowdowns from machine load are
	// one-sided, violations are checked on every attempt).
	best := func(cfg bench.PartialConfig) (bench.PartialResult, error) {
		r1, err := bench.RunPartial(cfg, progress)
		if err != nil {
			return r1, err
		}
		r2, err := bench.RunPartial(cfg, progress)
		if err != nil {
			return r2, err
		}
		if r1.Violations+r2.Violations > 0 {
			r1.Violations += r2.Violations
			return r1, nil
		}
		if r2.TxPerSec > r1.TxPerSec {
			return r2, nil
		}
		return r1, nil
	}

	if fullOnly {
		fmt.Println("\n== Full-replication baseline only (-fullrepl) ==")
		for _, size := range sizes {
			r, err := best(bench.PartialConfig{Buckets: size, Commits: commits, Full: true, Seed: seed})
			if err != nil {
				return err
			}
			fmt.Printf("%6d buckets: %d WAN units, %.0f tx/s, %d violations\n",
				size, r.WANUnits, r.TxPerSec, r.Violations)
		}
		return nil
	}

	var runs []partialRun
	for _, size := range sizes {
		cfg := bench.PartialConfig{Buckets: size, Commits: commits, Seed: seed}
		cfg.Full = true
		full, err := best(cfg)
		if err != nil {
			return err
		}
		cfg.Full = false
		part, err := best(cfg)
		if err != nil {
			return err
		}
		run := partialRun{Buckets: size, Full: full, Partial: part}
		if part.WANUnits > 0 {
			run.WANReduction = float64(full.WANUnits) / float64(part.WANUnits)
		}
		if full.TxPerSec > 0 {
			run.ThroughputRatio = part.TxPerSec / full.TxPerSec
		}
		runs = append(runs, run)
	}

	fmt.Println("\n== Partial replication A/B — full mesh vs interest-scoped (3 DCs, Zipf interest) ==")
	fmt.Printf("%8s %12s %12s %9s %10s %10s %12s %12s %8s\n",
		"buckets", "full(wan)", "part(wan)", "reduct", "stubs", "resident", "full(tx/s)", "part(tx/s)", "ratio")
	for _, r := range runs {
		resident := 0
		for _, s := range r.Partial.PerDC {
			resident += s.ResidentBuckets
		}
		fmt.Printf("%8d %12d %12d %8.1fx %10d %10d %12.0f %12.0f %8.2f\n",
			r.Buckets, r.Full.WANUnits, r.Partial.WANUnits, r.WANReduction,
			r.Partial.ReplStubTxs, resident, r.Full.TxPerSec, r.Partial.TxPerSec, r.ThroughputRatio)
	}

	out := struct {
		Generated string `json:"generated"`
		Bench     string `json:"bench"`
		Config    struct {
			Commits int     `json:"commits"`
			ZipfS   float64 `json:"zipf_s"`
			DCs     int     `json:"dcs"`
			K       int     `json:"k"`
		} `json:"config"`
		Runs []partialRun `json:"runs"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Bench:     "partial replication A/B: 3 DCs, shared Zipf hot set + per-DC cold thirds, full mesh baseline vs interest-scoped stubs (WAN units = payload txs the simnet carried; stub-only frames count 1)",
		Runs:      runs,
	}
	out.Config.Commits = commits
	out.Config.ZipfS = 1.2
	out.Config.DCs = 3
	out.Config.K = 2
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)

	for _, r := range runs {
		if v := r.Full.Violations + r.Partial.Violations; v > 0 {
			return fmt.Errorf("partial: %d convergence violations at %d buckets", v, r.Buckets)
		}
	}
	last := runs[len(runs)-1]
	if last.WANReduction < 5 {
		return fmt.Errorf("partial: WAN-unit reduction %.2fx at %d buckets, acceptance requires >=5x",
			last.WANReduction, last.Buckets)
	}
	if last.ThroughputRatio < 0.9 {
		return fmt.Errorf("partial: tx/s ratio %.2f at %d buckets, acceptance requires >=0.9",
			last.ThroughputRatio, last.Buckets)
	}
	// Residency proportionality: each DC's resident bucket count must stay
	// within 2× its interest set (on-demand backfills can add a few).
	for _, s := range last.Partial.PerDC {
		if s.ResidentBuckets > 2*s.InterestBuckets {
			return fmt.Errorf("partial: dc%d resident %d buckets vs %d interest at %d buckets universe",
				s.DC, s.ResidentBuckets, s.InterestBuckets, last.Buckets)
		}
	}
	return nil
}

// clientSweep builds the exponential load axis 4, 8, …, max.
func clientSweep(max int) []int {
	var out []int
	for c := 4; c <= max; c *= 2 {
		out = append(out, c)
	}
	return out
}

func printFig4(pts []bench.Fig4Point, obsDump bool) {
	fmt.Println("\n== Figure 4 — performance of Colony (throughput vs response time, log-log in the paper) ==")
	fmt.Printf("%-18s %8s %14s %10s %10s %10s %7s %7s %7s\n",
		"config", "clients", "tput(txn/s)", "mean(ms)", "p95(ms)", "p99(ms)", "hit%", "grp%", "dc%")
	for _, p := range pts {
		fmt.Printf("%-18s %8d %14.1f %10.2f %10.2f %10.2f %6.1f%% %6.1f%% %6.1f%%\n",
			p.Label(), p.Clients, p.ThroughputTx,
			p.Latency.MeanMs, p.Latency.P95Ms, p.Latency.P99Ms,
			100*p.Hits.Cache, 100*p.Hits.Group, 100*p.Hits.DC)
	}
	fmt.Println("\ncsv: config,clients,throughput_txs,mean_ms,p95_ms,p99_ms,cache,group,dc")
	for _, p := range pts {
		fmt.Printf("csv: %s,%d,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			p.Label(), p.Clients, p.ThroughputTx,
			p.Latency.MeanMs, p.Latency.P95Ms, p.Latency.P99Ms,
			p.Hits.Cache, p.Hits.Group, p.Hits.DC)
	}
	if !obsDump {
		return
	}
	// Per-run instrumentation snapshots — the same figures colony-server
	// serves at /metrics, captured once per deployment after the run.
	fmt.Println("\n== Figure 4 — per-run instrumentation snapshots ==")
	for _, p := range pts {
		fmt.Printf("\nobs[%s, %d clients]:\n", p.Label(), p.Clients)
		printIndented(p.Obs.String())
	}
}

// printIndented writes a multi-line dump with a two-space indent.
func printIndented(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}
}

func printTimeline(title string, res *bench.TimelineResult) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("events: first at %v, second at %v (model time)\n", res.Disconnect, res.Reconnect)
	buckets := bench.Bucketize(res.Samples)
	srcs := []string{edge.SourceCache.String(), edge.SourceGroup.String(), edge.SourceDC.String()}
	fmt.Printf("%6s", "t(s)")
	for _, s := range srcs {
		fmt.Printf(" %12s", s+"(ms)")
	}
	fmt.Printf(" %8s\n", "samples")
	for _, b := range buckets {
		fmt.Printf("%6d", b.Second)
		for _, s := range srcs {
			if st, ok := b.BySrc[s]; ok && st.Count > 0 {
				fmt.Printf(" %12.2f", st.MeanMs)
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		fmt.Printf(" %8d\n", b.Samples)
	}
	if len(res.FocusUsers) > 0 {
		fmt.Printf("focus user(s): %v\n", res.FocusUsers)
		var focus []bench.Sample
		for _, s := range res.Samples {
			for _, u := range res.FocusUsers {
				if s.User == u {
					focus = append(focus, s)
				}
			}
		}
		sort.Slice(focus, func(i, j int) bool { return focus[i].At < focus[j].At })
		fmt.Println("csv: t_s,latency_ms,source (focus user)")
		for _, s := range focus {
			fmt.Printf("csv: %.2f,%.3f,%s\n",
				s.At.Seconds(), float64(s.Latency)/float64(time.Millisecond), s.Source)
		}
	}
}

func printClaims(c bench.Claims) {
	fmt.Println("\n== Headline claims (§1, §7.3) — paper vs measured ==")
	row := func(name, paper string, measured float64, unit string) {
		fmt.Printf("%-46s %10s %12.2f%s\n", name, paper, measured, unit)
	}
	row("local caching: throughput gain vs cloud", "1.4x", c.ThroughputGainSwiftCloud, "x")
	row("group caching: throughput gain vs cloud", "1.6x", c.ThroughputGainColony, "x")
	row("local caching: response-time gain vs cloud", "8x", c.LatencyGainSwiftCloud, "x")
	row("group caching: response-time gain vs cloud", "20x", c.LatencyGainColony, "x")
	row("1->3 DCs: max throughput gain (no cache)", "+40%", (c.AntidoteDC3Gain-1)*100, "%")
	row("SwiftCloud local-cache hit rate", "90%", c.SwiftCloudHitRate*100, "%")
	row("Colony combined cache hit rate", "95%", c.ColonyCombinedHitRate*100, "%")
	row("offline/online latency ratio (hits)", "1.0", c.OfflineLatencyRatio, "")
}
