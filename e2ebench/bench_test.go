package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

func TestSeedGivesSameSchedule(t *testing.T) {
	for name, w := range workloads {
		a, _ := w.prepare(7, 300, 40, t.TempDir())
		b, _ := w.prepare(7, 300, 40, t.TempDir())
		c, _ := w.prepare(8, 300, 40, t.TempDir())
		if len(a) != 300 {
			t.Errorf("%s: %d actions, want 300", name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different action lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same actions", name)
		}
	}
	window := 2 * time.Second
	ev := buildSchedule(300, 40, window)
	if !reflect.DeepEqual(ev, buildSchedule(300, 40, window)) {
		t.Fatal("buildSchedule is not deterministic")
	}
	acts, probes := 0, 0
	for i, e := range ev {
		if i > 0 && e.At < ev[i-1].At {
			t.Fatalf("event %d due at %v before event %d at %v", i, e.At, i-1, ev[i-1].At)
		}
		if e.At < 0 || e.At >= window {
			t.Fatalf("event %d due at %v, outside the %v window", i, e.At, window)
		}
		if e.Probe > 0 {
			probes++
			if e.Probe != probes {
				t.Fatalf("probe %d scheduled as number %d", probes, e.Probe)
			}
		} else {
			if e.Action != acts {
				t.Fatalf("action %d scheduled as number %d", acts, e.Action)
			}
			acts++
		}
	}
	if acts != 300 || probes != 40 {
		t.Fatalf("%d actions and %d probes scheduled, want 300 and 40", acts, probes)
	}
}

func TestPercentileAndRatioHelpers(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %v, want 0.25", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	d := durations{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := d.pct(0.5, time.Microsecond); got != 2000 {
		t.Errorf("p50 of 1,2,3 ms = %v us, want 2000", got)
	}
	if got := d[0]; got != 3*time.Millisecond {
		t.Errorf("pct reordered its receiver: first sample is now %v", got)
	}
}

func TestLateGrowth(t *testing.T) {
	flat := make([]time.Duration, 100)
	if got := lateGrowthMs(flat); got != 0 {
		t.Errorf("growth of constant lateness = %v ms, want 0", got)
	}
	rising := make([]time.Duration, 100)
	for i := range rising {
		rising[i] = time.Duration(i) * time.Millisecond
	}
	if got := lateGrowthMs(rising); got < 50 {
		t.Errorf("growth of rising lateness = %v ms, want at least 50", got)
	}
}

func TestProbeSlots(t *testing.T) {
	const n = 4*probeWriters + 3
	logs := newProbeLogs(n)
	var total int64
	for _, l := range logs {
		total += l.want()
	}
	if total != n {
		t.Fatalf("logs expect %d probes in all, want %d", total, n)
	}
	seen := map[[2]int]bool{}
	for p := 1; p <= n; p++ {
		w, k := probeSlot(p)
		if k < 1 || int64(k) > logs[w].want() || seen[[2]int{w, k}] {
			t.Fatalf("probe %d maps to writer %d probe %d (writer expects %d)", p, w, k, logs[w].want())
		}
		seen[[2]int{w, k}] = true
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: spAppRead, Parent: -1, Start: 0, End: 10},
		{Name: spEdgeReadCache, Parent: 0, Start: 2, End: 5},
		{Name: spEdgeCommitRead, Parent: 0, Start: 6, End: 7},
	}}
	st := summarizeSpans([]*tracer{tr})
	if got := st.selfByLayer["app"]; got != 6 {
		t.Errorf("app self time = %v, want 6ns", got)
	}
	if got := st.selfByLayer["edge"]; got != 4 {
		t.Errorf("edge self time = %v, want 4ns", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spAppRead)) // a nil tracer records nothing
}

func TestCPUPackageAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1", "colony/internal/dc.(*DC).antiEntropyLocked", "main.drive"}, "dc"},
		{[]string{"colony/internal/transport/tcp.(*Mesh).writeLoop"}, "tcp"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "main.(*chatEnv).do"}, "driver"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := cpuPackage(c.stack); got != c.want {
			t.Errorf("cpuPackage(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i * i % 7
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		spin(1 << 16)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples in a 300ms busy profile")
	}
	found := false
	for i := range p.samples {
		for _, fn := range p.stack(i) {
			if fn == "colony/e2ebench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Error("the busy function is missing from every sample's stack")
	}
	var total int64
	for _, v := range cpuByPackage(p) {
		total += v
	}
	if total <= 0 {
		t.Errorf("profile attributes %d ns of CPU", total)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the benchmark prints
// and the ones BENCHMARK.json declares the same.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, ms []metric, declared []struct{ Name, Unit string }) {
		var got, want []string
		for _, m := range ms {
			got = append(got, m.name+" "+m.unit)
		}
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics printed:\n%v\ndeclared:\n%v", kind, got, want)
		}
	}
	check("end-to-end", endToEndMetrics([]*result{{}}), spec.EndToEnd)
	check("per-layer", layerMetrics(&result{}, &result{}), spec.PerLayer)
}

// TestSmokeWorkloads runs a short round of every workload and requires its
// output checks to pass.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every deployment")
	}
	for _, name := range []string{"chat", "group-chat", "ingest", "mesh"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			const nActs, nProbes = 60, 12
			window := 400 * time.Millisecond
			cfg := runConfig{Workload: name, Actions: nActs, Probes: nProbes, Drivers: 2}
			acts, setup := w.prepare(3, nActs, nProbes, t.TempDir())
			res, err := measure(cfg, acts, buildSchedule(nActs, nProbes, window), setup, name == "chat", false)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 || res.failed > 0 {
				t.Fatalf("%d of %d operations failed; checks: %v", res.failed, res.attempted, res.failures)
			}
			if got := len(res.drive.local) + len(res.drive.remote); got != nActs {
				t.Errorf("%d actions completed, want %d", got, nActs)
			}
			if len(res.visibility) == 0 {
				t.Error("no probe became visible across DCs")
			}
			if name == "chat" && len(res.cpuByPkg) == 0 {
				t.Error("the traced round attributed no CPU time")
			}
		})
	}
}
