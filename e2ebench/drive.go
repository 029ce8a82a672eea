package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/obs"
)

// env is one booted deployment under test.
type env interface {
	// do runs one action and reports whether the group or the DC served it
	// (a remote read) rather than the device or the local DC.
	do(a action, tr *tracer) (remote bool, err error)
	// probe commits the n-th probe on DC 0's side: an increment of writer
	// w's probe counter, where w, k = probeSlot(n), stamped into the
	// writer's probe log as its k-th probe.
	probe(n int, tr *tracer) error
	// observers returns the cross-DC probe observers and, in group-chat,
	// the observers in the writers' own group.
	observers() (crossDC []*observer, sameGroup []*observer)
	// settle waits until every device's commits reached its DC and every DC
	// reads exactly the posts issued to it, then runs the remaining output
	// checks; it returns one message per failed check.
	settle(deadline time.Time) []string
	registry() *obs.Registry
	close()
}

// probeWriters is how many writers, each with its own probe counter, share
// the probes. A device's commits reach its DC one round trip at a time, so
// one writer at the full probe rate would queue behind its own commits.
const probeWriters = 4

// probeSlot maps probe n (from 1) to its writer and to the probe's number
// (from 1) among that writer's probes.
func probeSlot(n int) (w, k int) { return (n - 1) % probeWriters, (n-1)/probeWriters + 1 }

// probeKeyOf names writer w's probe counter.
func probeKeyOf(w int) string { return fmt.Sprintf("ctr%d", w) }

// probeLog holds the commit start time of each of one writer's probes.
type probeLog struct {
	key string
	at  []atomic.Int64 // unix nanoseconds, index = the writer's probe number
}

// newProbeLogs makes one log per writer for nProbes probes in all.
func newProbeLogs(nProbes int) []*probeLog {
	counts := make([]int, probeWriters)
	for n := 1; n <= nProbes; n++ {
		w, _ := probeSlot(n)
		counts[w]++
	}
	logs := make([]*probeLog, probeWriters)
	for w := range logs {
		// Index 0 is unused: probe numbers start at 1.
		logs[w] = &probeLog{key: probeKeyOf(w), at: make([]atomic.Int64, counts[w]+1)}
	}
	return logs
}

// want is the writer's probe count: its counter's value after the run.
func (p *probeLog) want() int64 { return int64(len(p.at) - 1) }

func (p *probeLog) stamp(k int) { p.at[k].Store(time.Now().UnixNano()) }

// observer records when each of one writer's probes becomes visible at one
// device. The counter's value is the number of the writer's probes applied,
// and a device applies one writer's increments in order, so value v means
// probes 1..v are visible.
type observer struct {
	name  string
	log   *probeLog
	value func() (int64, error)

	mu   sync.Mutex
	seen int64
	lat  durations
}

func newObserver(name string, log *probeLog, value func() (int64, error)) *observer {
	return &observer{name: name + "/" + log.key, log: log, value: value}
}

// onUpdate is the OnUpdate callback of the probe counter.
func (o *observer) onUpdate() {
	v, err := o.value()
	if err != nil {
		return
	}
	now := time.Now().UnixNano()
	o.mu.Lock()
	defer o.mu.Unlock()
	for p := o.seen + 1; p <= v && p < int64(len(o.log.at)); p++ {
		if at := o.log.at[p].Load(); at != 0 {
			o.lat = append(o.lat, time.Duration(now-at))
		}
	}
	if v > o.seen {
		o.seen = v
	}
}

// observed returns how many probes the observer has seen and the visibility
// latencies recorded so far.
func (o *observer) observed() (int64, durations) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seen, append(durations(nil), o.lat...)
}

// driveResult is what the drivers measured over the window.
type driveResult struct {
	local, remote durations // service time of completed actions
	late          []time.Duration
	attempted     int
	failed        int
	probesFailed  int
	writes        int // committed write transactions, probes included
	errs          []error
}

// drive runs the schedule open-loop on nDrivers goroutines: event i goes to
// driver i mod nDrivers, which waits until the event is due and then runs
// it. An action is timed from its actual start (a late driver delays it, so
// lateness is reported on its own); tracers, when non-nil, hold one tracer
// per driver.
func drive(e env, acts []action, events []event, nDrivers int, start time.Time, tracers []*tracer) driveResult {
	parts := make([]driveResult, nDrivers)
	late := make([]time.Duration, len(events))
	var wg sync.WaitGroup
	for d := 0; d < nDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			r := &parts[d]
			var tr *tracer
			if tracers != nil {
				tr = tracers[d]
			}
			for i := d; i < len(events); i += nDrivers {
				ev := events[i]
				due := start.Add(ev.At)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				began := time.Now()
				late[i] = began.Sub(due)
				if tr != nil {
					tr.event = int32(i)
				}
				if ev.Probe > 0 {
					if err := e.probe(ev.Probe, tr); err != nil {
						r.probesFailed++
						r.errs = append(r.errs, err)
					} else {
						r.writes++
					}
					continue
				}
				r.attempted++
				a := acts[ev.Action]
				remote, err := e.do(a, tr)
				took := time.Since(began)
				switch {
				case err != nil:
					r.failed++
					r.errs = append(r.errs, err)
				case remote:
					r.remote = append(r.remote, took)
				default:
					r.local = append(r.local, took)
				}
				if err == nil && (a.Kind == actPost || a.Kind == actDCCommit) {
					r.writes++
				}
			}
		}(d)
	}
	wg.Wait()
	var out driveResult
	for _, p := range parts {
		out.local = append(out.local, p.local...)
		out.remote = append(out.remote, p.remote...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.probesFailed += p.probesFailed
		out.writes += p.writes
		out.errs = append(out.errs, p.errs...)
	}
	out.late = late
	return out
}

// lateGrowthMs compares the 90th-percentile lateness of the window's last
// quarter with that of its first quarter: a generator that keeps up shows no
// growth, a saturated one falls further behind as the window goes on.
func lateGrowthMs(late []time.Duration) float64 {
	q := len(late) / 4
	if q == 0 {
		return 0
	}
	first := durations(late[:q]).pct(0.9, time.Millisecond)
	last := durations(late[len(late)-q:]).pct(0.9, time.Millisecond)
	return last - first
}
