package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat; Linux has
// fixed USER_HZ at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time a process has consumed.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after the last ')'.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// daemon is a livesecd child process driven as a black box.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // OpenFlow listen address it reported
	stderr bytes.Buffer
	exited chan struct{} // closed when the process has been waited for
	err    error         // Wait's result, valid after exited

	stopOnce sync.Once
}

// startDaemon launches bin on an ephemeral port with default flags, and
// returns once it has printed its listen address. Its stdout (one line
// per monitoring event) is drained for the life of the process.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-http", "")
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, however that ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		br := bufio.NewReaderSize(stdout, 1<<16)
		line, _ := br.ReadString('\n')
		addrc <- line
		_, _ = io.Copy(io.Discard, br)
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	const banner = "livesecd: OpenFlow on "
	select {
	case line := <-addrc:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), banner)
		if !ok {
			d.stop()
			return nil, fmt.Errorf("livesecd printed %q, want %q…; stderr: %s", line, banner, d.stderr.String())
		}
		d.addr = addr
		return d, nil
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("livesecd did not report its listen address; stderr: %s", d.stderr.String())
	}
}

// dead reports the daemon's exit, if it has exited.
func (d *daemon) dead() error {
	select {
	case <-d.exited:
		return fmt.Errorf("livesecd exited mid-run (%v); stderr: %s", d.err, d.stderr.String())
	default:
		return nil
	}
}

// stop interrupts the daemon, kills it if it lingers, and waits.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(os.Interrupt)
		select {
		case <-d.exited:
		case <-time.After(2 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
