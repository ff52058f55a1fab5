package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir is where the harness leaves what a run produced: vnnd's log and
// the span files. It is ignored by git.
const outDir = "benchmark/out"

// vnndProc is one vnnd child on a loopback port, started with default
// flags. Every path out of a run goes through kill, and the child is set
// to die with the harness, so none outlives it.
type vnndProc struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:<port>
	done chan error
	// exited is set once done has been received: the child is gone.
	exited bool
}

// freePort asks the kernel for an unused port by listening and closing.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startVnnd boots the binary and waits until /readyz answers 200.
func startVnnd(binary, name string) (*vnndProc, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	logf, err := os.Create(filepath.Join(outDir, "vnnd-"+name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(binary, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the harness even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", binary, err)
	}
	p := &vnndProc{cmd: cmd, log: logf, base: "http://" + addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			logf.Close()
			return nil, fmt.Errorf("vnnd exited during boot: %v (see %s)", err, logf.Name())
		default:
		}
		if resp, err := http.Get(p.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("vnnd not ready after 15s (see %s)", logf.Name())
}

// stop sends SIGTERM and requires a clean drain: exit status 0.
func (p *vnndProc) stop() error {
	defer p.log.Close()
	if p.exited {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal vnnd: %w", err)
	}
	select {
	case err := <-p.done:
		p.exited = true
		if err != nil {
			return fmt.Errorf("vnnd did not drain cleanly: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("vnnd ignored SIGTERM for 20s and was killed")
	}
}

// kill ends the child at once and waits for it; harmless after stop.
func (p *vnndProc) kill() {
	if p.exited {
		return
	}
	p.cmd.Process.Kill()
	<-p.done
	p.exited = true
	p.log.Close()
}

// cpuSeconds is the child's user plus system time from /proc/<pid>/stat.
func (p *vnndProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces: fields are
	// counted from the closing one. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const userHz = 100 // USER_HZ, fixed by the Linux ABI
	return (utime + stime) / userHz, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (p *vnndProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSample is vnnd's cumulative CPU time at one moment.
type cpuSample struct {
	at  time.Time
	cpu float64
}

// sampleCPU reads the child's CPU time ten times a second until stop is
// called, which returns the readings. Per-slice CPU use is interpolated
// from them, so the sampler need not know where a window's slices fall.
func (p *vnndProc) sampleCPU() (stop func() []cpuSample) {
	var samples []cpuSample
	read := func() {
		if cpu, err := p.cpuSeconds(); err == nil {
			samples = append(samples, cpuSample{time.Now(), cpu})
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for read(); ; read() {
			select {
			case <-tick.C:
			case <-quit:
				return
			}
		}
	}()
	return func() []cpuSample {
		close(quit)
		<-done
		read()
		return samples
	}
}

// cpuAt interpolates the child's cumulative CPU time at t.
func cpuAt(samples []cpuSample, t time.Time) float64 {
	for i := 1; i < len(samples); i++ {
		if a, b := samples[i-1], samples[i]; !t.After(b.at) {
			share := ratio(t.Sub(a.at).Seconds(), b.at.Sub(a.at).Seconds())
			return a.cpu + math.Max(0, math.Min(1, share))*(b.cpu-a.cpu)
		}
	}
	return samples[len(samples)-1].cpu
}
