package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request that was answered correctly.
type sample struct {
	index   int           // position in the phase's part of the stream
	sent    time.Duration // since the phase began
	due     time.Duration // open phase: when the schedule wanted it sent; closed: sent
	latency float64       // ms; open phase: from the instant the request was due; closed: from send
	service float64       // ms from send to answer
	lag     float64       // ms the generator itself sent late (open phase)
	class   uint8
	bytes   int
}

// phase is the outcome of one measured phase.
type phase struct {
	samples   []sample
	attempted int
	failed    int // not 2xx, transport error, wrong answer, or never sent
	wrong     int // wrong answers among the failed
	shed      int // 503s among the failed
	elapsed   time.Duration
	span      time.Duration // open phase: when the last request was due
}

func (p *phase) latencies(keep func(sample) bool, of func(sample) float64) []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if keep(s) {
			out = append(out, of(s))
		}
	}
	return out
}

// phaseSlices is how many equal parts a measured phase is cut into. Every gated
// metric is the median of its value on each part, so a disturbance that lasts
// a second (a collector cycle, a burst of misses queueing behind each other,
// another process on the box) moves one part and not the metric.
const phaseSlices = 6

// sliceMedian cuts the phase's first dur into equal parts by at, evaluates
// stat on the kept samples of each part and returns the median, with the
// number of samples that went in.
func (p *phase) sliceMedian(dur time.Duration, keep func(sample) bool, at func(sample) time.Duration, stat func([]sample, time.Duration) float64) (float64, int) {
	parts := make([][]sample, phaseSlices)
	n := 0
	for _, s := range p.samples {
		if k := int(at(s) * phaseSlices / dur); keep(s) && k >= 0 && k < phaseSlices {
			parts[k] = append(parts[k], s)
			n++
		}
	}
	values := make([]float64, phaseSlices)
	for k, part := range parts {
		values[k] = stat(part, dur/phaseSlices)
	}
	return median(values), n
}

// latencyPercentile is a sliceMedian stat: the pct-th percentile of latency.
func latencyPercentile(pct float64) func([]sample, time.Duration) float64 {
	return func(part []sample, _ time.Duration) float64 {
		v := make([]float64, len(part))
		for i, s := range part {
			v[i] = s.latency
		}
		return percentile(v, pct)
	}
}

func isRead(s sample) bool { return s.class != classWrite }

// note reports a failed check on standard error; a run with thousands of
// failures prints the first few.
func (r *run) note(format string, args ...any) {
	if n := r.notes.Add(1); n <= 10 {
		fmt.Fprintf(os.Stderr, "%s: "+format+"\n", append([]any{r.wl.name}, args...)...)
	}
}

// worker-local tallies, merged when the phase ends.
type tally struct {
	samples                        []sample
	attempted, failed, wrong, shed int
}

func (t *tally) record(r *run, out outcome, s sample) {
	t.attempted++
	if !out.ok {
		t.failed++
		if out.shed {
			t.shed++
		}
		if out.wrong {
			t.wrong++
		}
		r.note("%s", out.detail)
		return
	}
	s.class, s.bytes = out.class, out.bytes
	t.samples = append(t.samples, s)
}

func (p *phase) merge(tallies []tally) {
	for _, t := range tallies {
		p.samples = append(p.samples, t.samples...)
		p.attempted += t.attempted
		p.failed += t.failed
		p.wrong += t.wrong
		p.shed += t.shed
	}
}

// closedPhase keeps r.conns requests in flight for dur: each connection sends
// its next request when the last one completes, so the rate is what the
// servers sustain.
func (r *run) closedPhase(dur time.Duration) phase {
	var next atomic.Int64
	tallies := make([]tally, r.conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				sent := time.Now()
				out := r.do(r.stream[(r.pos+i)%len(r.stream)])
				ms := time.Since(sent).Seconds() * 1e3
				tallies[w].record(r, out, sample{index: i, sent: sent.Sub(start), due: sent.Sub(start), latency: ms, service: ms})
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	p.merge(tallies)
	r.pos += p.attempted
	return p
}

// openPhase offers load on a schedule whatever the servers do: rate requests
// per second for dur, or until limit requests (0: no limit). Arrivals are
// evenly spaced, each moved by up to a quarter of the gap either way with the
// run's seed, so that they do not march in step with the servers; bursts of
// a Poisson schedule made the tail latency a property of the schedule drawn,
// not of the servers. A request is timed from the instant it was due, so time
// it spent waiting for a free connection counts. Requests still unsent a
// quarter of the phase past its end are counted as failed.
func (r *run) openPhase(dur time.Duration, rate float64, limit int) phase {
	gap := float64(time.Second) / rate
	var due []time.Duration
	for i := 0; limit == 0 || i < limit; i++ {
		at := time.Duration((float64(i) + 0.5 + (r.rng.Float64()-0.5)/2) * gap)
		if at >= dur {
			break
		}
		due = append(due, at)
	}
	var next atomic.Int64
	tallies := make([]tally, r.conns)
	start := time.Now()
	giveUp := start.Add(dur + dur/4 + time.Second)
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				free := time.Now()
				if i >= len(due) || free.After(giveUp) {
					return
				}
				at := start.Add(due[i])
				sleepUntil(at)
				sent := time.Now()
				lag := sent.Sub(at)
				if free.After(at) {
					lag = sent.Sub(free) // the connection was busy: that wait is the servers', not the generator's
				}
				out := r.do(r.stream[(r.pos+i)%len(r.stream)])
				done := time.Now()
				tallies[w].record(r, out, sample{
					index: i, sent: sent.Sub(start), due: due[i],
					latency: done.Sub(at).Seconds() * 1e3,
					service: done.Sub(sent).Seconds() * 1e3,
					lag:     lag.Seconds() * 1e3,
				})
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	if len(due) > 0 {
		p.span = due[len(due)-1]
	}
	p.merge(tallies)
	if unsent := len(due) - p.attempted; unsent > 0 {
		p.attempted += unsent
		p.failed += unsent
	}
	r.pos += len(due)
	return p
}

// achievedRatio is the rate of correct answers over the rate of the schedule:
// answers per second until the last answer, over requests per second until
// the last one was due.
func (p *phase) achievedRatio() float64 {
	if p.attempted == 0 || p.elapsed == 0 {
		return 0
	}
	return float64(len(p.samples)) / float64(p.attempted) * min(1, p.span.Seconds()/p.elapsed.Seconds())
}

// sleepUntil returns at the instant t, or at once if it has passed. The
// kernel wakes a sleeper some tens of microseconds late, more on a busy
// machine, and that lateness would count as latency; so the last stretch is
// spent polling the clock.
func sleepUntil(t time.Time) {
	const spin = 400 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}
