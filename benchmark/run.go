package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// Shares of the window length: the un-timed load before the window of a
// cycled workload, and the time the in-process replay may take.
const (
	warmShare   = 1.0 / 20
	replayShare = 1.0 / 4
)

// session is a workload set up and ready to be timed: bodies built, vnnd
// booted, ready and warmed.
type session struct {
	fx       *fixture
	wl       *workload
	srv      *vnndProc
	gen      *generator
	bodiesMS float64
	bootMS   float64
}

// setUp does everything setup_s counts: dataset, training, request bodies,
// vnnd boot to /readyz, warm requests. Building the binaries is not part
// of it; that depends on the state of the build cache.
func setUp(cfg runConfig, name string) (*session, error) {
	golden, err := loadGolden(cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &session{}
	if s.fx, err = newFixture(); err != nil {
		return nil, err
	}
	start := time.Now()
	if s.wl, err = buildWorkload(name, s.fx, cfg.seed, golden); err != nil {
		return nil, err
	}
	s.bodiesMS = msSince(start)
	start = time.Now()
	if s.srv, err = startVnnd(cfg.vnnd, name); err != nil {
		return nil, err
	}
	s.bootMS = msSince(start)
	s.gen = newGenerator(s.wl, s.srv.base)
	for _, body := range s.wl.warm {
		if _, err := s.gen.post(body); err != nil {
			s.srv.kill()
			return nil, fmt.Errorf("warm request: %w", err)
		}
	}
	return s, nil
}

// runWorkload sets the workload up, times it, and reports either the
// end-to-end metrics or, traced, the per-layer ones. An error means the
// harness could not measure; a wrong or missing answer is not an error but
// a failed operation in the result.
func runWorkload(cfg runConfig, name string) (*result, error) {
	// Set-up is cheap next to a window, so it is done several times and
	// the median reported; the last one is the one that gets timed. The
	// traced run does not report setup_s and sets up once.
	setups := cfg.setups
	if cfg.traced {
		setups = 1
	}
	cal := startCalibrator()
	defer cal.stop()
	var s *session
	var setupS []float64
	setupStart := time.Now()
	for i := 0; i < setups; i++ {
		if s != nil {
			// Only the vnnd that gets timed must drain cleanly. (One that
			// is told to stop within microseconds of answering /readyz can
			// die of the SIGTERM: it installs its handler after it starts
			// to listen. Seen once, on a box with half its CPU stolen.)
			s.srv.kill()
		}
		start := time.Now()
		var err error
		if s, err = setUp(cfg, name); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	setupSpeed := cal.speed(setupStart, time.Now())
	defer s.srv.kill()
	// A stretch of un-timed load lets vnnd's heap, its connections and
	// the generator's verified replies settle before the window. A
	// send-once workload has nothing to settle: each request is new.
	if !s.wl.once {
		s.gen.run(cfg.seconds*warmShare, cfg.maxOps, nil)
	}

	res := &result{workload: name, Metrics: map[string]metric{}, notes: map[string]string{}, effort: map[int][2]float64{}}
	var windows []*window
	var err error
	if cfg.traced {
		windows, err = tracedRun(cfg, s, res)
	} else {
		raw := median(setupS)
		res.set("setup_s", raw*setupSpeed, "s", fmt.Sprintf("raw %.4f; box speed %.3f; median of %d set-ups", raw, setupSpeed, setups))
		windows, err = plainRun(cfg, s, res, cal)
	}
	if err != nil {
		return nil, err
	}
	for _, win := range windows {
		res.Attempted += win.attempted
		res.Failed += win.failed
		for i, e := range win.t.effort {
			res.effort[i] = e
		}
		if res.firstErr == nil {
			res.firstErr = win.firstErr
		}
	}
	// vnnd must drain cleanly; one that does not has failed its last job.
	if err := s.srv.stop(); err != nil && res.firstErr == nil {
		res.firstErr = err
		res.Failed++
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted in %.1fs", cfg.seconds)
	}
	res.Correct = res.Failed == 0 && res.firstErr == nil
	return res, nil
}

// slices is how many equal parts the window is cut into. ops_per_s and
// server_cpu_ms_per_op are medians over the parts: on a shared box whose
// speed shifts for a second or two at a time, the median part is steadier
// than the total.
const slices = 10

// plainRun is the default run: one window, nothing scraped or replayed,
// and the end-to-end metrics a client of vnnd would see.
func plainRun(cfg runConfig, s *session, res *result, cal *calibrator) ([]*window, error) {
	stop := s.srv.sampleCPU()
	ticks0, stolen0 := cpuTicks()
	win := s.gen.run(cfg.seconds, cfg.maxOps, nil)
	ticks1, stolen1 := cpuTicks()
	cpu := stop()
	if len(cpu) < 2 {
		return nil, fmt.Errorf("could not read vnnd's CPU time from /proc")
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	span := math.Min(cfg.seconds, win.wallS)
	width := time.Duration(span / slices * float64(time.Second))
	var rates, cpuMS []float64
	for k, work := range win.sliceWork(slices, span) {
		from := win.start.Add(time.Duration(k) * width)
		rates = append(rates, work/width.Seconds())
		if work > 0 {
			cpuMS = append(cpuMS, (cpuAt(cpu, from.Add(width))-cpuAt(cpu, from))*1e3/work)
		}
	}
	n := fmt.Sprintf("n=%d", len(win.latMS))
	perSlice := fmt.Sprintf("median of %d slices of %.1fs", slices, width.Seconds())
	speed := cal.speed(win.start, win.start.Add(time.Duration(win.wallS*float64(time.Second))))
	raw := func(v float64) string { return fmt.Sprintf("raw %.4f", v) }
	box := fmt.Sprintf("box speed %.3f, %.1f%% of its CPU time stolen", speed, 100*ratio(stolen1-stolen0, ticks1-ticks0))
	res.set("ops_per_s", median(rates)/speed, "1/s", fmt.Sprintf("%s; %s; %s; %s in %.1fs, %d clients", raw(median(rates)), box, perSlice, n, win.wallS, s.wl.clients))
	res.set("latency_p50_ms", win.latency(0.50)*speed, "ms", raw(win.latency(0.50))+"; "+n)
	tail, how := win.latency(s.wl.tail), n
	if s.wl.tailPerSlice && win.failed == 0 {
		tail, how = win.sliceLatency(slices, span, s.wl.tail), n+", "+perSlice
	}
	res.set("latency_tail_ms", tail*speed, "ms", fmt.Sprintf("%s; p%.0f, %s", raw(tail), s.wl.tail*100, how))
	res.set("server_cpu_ms_per_op", median(cpuMS)*speed, "ms", raw(median(cpuMS))+"; vnnd user+system time, "+perSlice)
	res.set("server_peak_rss_mb", rss, "MB", "vnnd VmHWM")
	return []*window{win}, nil
}

// tracedRun gives the per-layer metrics. Half the time is an untraced
// window, the other half a traced one (a span per request, /metrics read
// before and after), so that the cost of tracing is itself measured; then
// the replay, outside any window.
func tracedRun(cfg runConfig, s *session, res *result) ([]*window, error) {
	plain := s.gen.run(cfg.seconds/2, cfg.maxOps, nil)
	rec := newRecorder()
	before, err := scrape(s.srv.base)
	if err != nil {
		return nil, err
	}
	traced := s.gen.run(cfg.seconds/2, cfg.maxOps, rec)
	after, err := scrape(s.srv.base)
	if err != nil {
		return nil, err
	}
	windows := []*window{plain, traced}
	sourceA(res, s.wl, traced, before, after)

	if err := checkLayers(res, s.wl); err != nil && traced.firstErr == nil {
		traced.firstErr = err
		traced.failed++
	}
	if err := replay(res, rec, s.fx, s.wl, time.Duration(cfg.seconds*replayShare*float64(time.Second))); err != nil {
		return nil, err
	}
	if err := lpStreams(res, rec, s.fx.nets[s.wl.width], cfg.seed); err != nil {
		return nil, err
	}
	res.set("highway.dataset_ms", s.fx.datasetMS, "ms", "")
	res.set("train.fit_ms", s.fx.fitMS, "ms", "both predictors")
	res.set("benchmark.bodies_ms", s.bodiesMS, "ms", fmt.Sprintf("%d bodies", len(s.wl.bodies)))
	res.set("vnnd.boot_ms", s.bootMS, "ms", "exec to /readyz")
	rate := func(w *window) float64 { return ratio(float64(len(w.latMS)), w.wallS) }
	res.set("trace.overhead_share", 1-ratio(rate(traced), rate(plain)), "ratio", "1 - ops/s traced over untraced")
	return windows, rec.write(filepath.Join(outDir, "trace-"+s.wl.name+".json"))
}
