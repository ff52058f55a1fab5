package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The box this runs on is shared. For minutes at a time every instruction
// on it takes up to twice as long (a busy neighbour on the same core), and
// vnnd's CPU time per operation, its latency and its throughput all move
// together with that. A change to vnnd cannot be told from such a shift by
// looking at vnnd alone. So, alongside every run, the harness times a fixed
// piece of arithmetic of its own, twice a second, in CPU time of the thread
// that runs it, and scales the time and rate metrics it reports to a box
// on which that piece takes referenceBurst. The raw readings are printed
// next to the scaled ones. README.md has the measurements behind this.

const (
	// referenceBurst is the CPU time of one burst on the reference box at
	// its fastest. Only its constancy matters.
	referenceBurst = 5 * time.Millisecond
	burstEvery     = 500 * time.Millisecond
	burstRows      = 96
	burstCols      = 320 // 96 x 320 float64: 240 KB, about the solver's tableau
	burstPivots    = 400
	// damping is the power of the burst's slow-down by which a metric is
	// corrected. The burst, a streaming floating-point loop, slows down
	// more than vnnd does under the same neighbour: over 80 runs, on all
	// four workloads, a power between 0.6 and 0.75 left the least spread,
	// and the full correction (1) left as much as none at all.
	damping = 0.7
)

type burstSample struct {
	at   time.Time
	cpu  time.Duration
	cpu2 time.Duration // EXPERIMENT: parse kernel
}

// calibrator takes bursts in the background until stop is called.
type calibrator struct {
	mu      sync.Mutex
	samples []burstSample
	quit    chan struct{}
	done    chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// Thread CPU time is read with getrusage, so the goroutine must
		// stay on one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		table := make([]float64, burstRows*burstCols)
		tick := time.NewTicker(burstEvery)
		defer tick.Stop()
		for {
			s := burstSample{at: time.Now(), cpu: burst(table)}
			c.mu.Lock()
			c.samples = append(c.samples, s)
			c.mu.Unlock()
			select {
			case <-tick.C:
			case <-c.quit:
				return
			}
		}
	}()
	return c
}

func (c *calibrator) stop() {
	close(c.quit)
	<-c.done
}

// burst does a fixed number of dense row updates, the inner loop of a
// tableau pivot, and returns the CPU time the calling thread spent.
func burst(t []float64) time.Duration {
	for i := range t {
		t[i] = float64(i%17)*0.01 + 0.5
	}
	before := threadCPU()
	for k := 0; k < burstPivots; k++ {
		p := k % burstRows
		prow := t[p*burstCols : (p+1)*burstCols]
		for i := 0; i < burstRows; i++ {
			if i == p {
				continue
			}
			row := t[i*burstCols : (i+1)*burstCols]
			f := row[k%burstCols] * 1e-3
			for j := range row {
				row[j] -= f * prow[j]
			}
		}
	}
	return threadCPU() - before
}

func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speed is how fast the box was between from and to, relative to the
// reference: the reference burst time over the median burst time there,
// damped. Times are multiplied by it and rates divided. It is 1 when no
// burst fell in the interval.
func (c *calibrator) speed(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ms []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) && s.cpu > 0 {
			ms = append(ms, s.cpu.Seconds())
		}
	}
	if len(ms) == 0 {
		return 1
	}
	return math.Pow(referenceBurst.Seconds()/median(ms), damping)
}

// cpuTicks reads the box's cumulative CPU accounting from /proc/stat: all
// ticks, and the ticks the hypervisor gave to somebody else while a vCPU
// here wanted to run. The share stolen during a window is printed with the
// results: above a few percent, the run measured the neighbours.
func cpuTicks() (total, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 8 { // user nice system idle iowait irq softirq steal
			stolen = v
		}
	}
	return total, stolen
}
