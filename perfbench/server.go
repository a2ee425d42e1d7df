package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bulletd is one running server process.
type bulletd struct {
	cmd    *exec.Cmd
	addr   string
	reader sync.WaitGroup // the stdout reader; it ends when the process exits
}

const (
	serveBanner = "bulletd serving on "
	// patience bounds a start or a clean stop; past it the process is killed.
	patience = 60 * time.Second
)

// startBulletd runs bin with args and the images as its descriptors 3
// and 4, logging its stderr to logPath, and returns once it prints its
// listen address (after it has loaded the images and is accepting
// connections).
func startBulletd(bin string, args []string, logPath string, images memImages) (*bulletd, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bulletd log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.ExtraFiles = images
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("bulletd stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bulletd: %w", err)
	}
	b := &bulletd{cmd: cmd}
	// The reader hands over the address, then drains stdout until the
	// process exits; addrs closes at EOF.
	addrs := make(chan string, 1)
	b.reader.Add(1)
	go func() {
		defer b.reader.Done()
		defer close(addrs)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), serveBanner); ok && !sent {
				addrs <- strings.TrimSpace(addr)
				sent = true
			}
		}
	}()
	timer := time.AfterFunc(patience, func() { _ = cmd.Process.Kill() })
	addr, ok := <-addrs
	timer.Stop()
	if !ok {
		return nil, fmt.Errorf("bulletd exited before serving (%v); see %s", b.wait(), logPath)
	}
	b.addr = addr
	return b, nil
}

// wait reaps the process once its stdout is drained.
func (b *bulletd) wait() error {
	b.reader.Wait()
	return b.cmd.Wait()
}

// stop sends SIGTERM (a clean shutdown: drain, sync, close) and waits
// for the process to exit.
func (b *bulletd) stop() error {
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		b.kill()
		return fmt.Errorf("signalling bulletd: %w", err)
	}
	timer := time.AfterFunc(patience, func() { _ = b.cmd.Process.Kill() })
	defer timer.Stop()
	if err := b.wait(); err != nil {
		return fmt.Errorf("bulletd shutdown: %w", err)
	}
	return nil
}

// kill ends the process without a clean shutdown and waits for it. It is
// for error paths, so a process already reaped is not an error.
func (b *bulletd) kill() {
	_ = b.cmd.Process.Kill()
	_ = b.wait()
}

// userHZ is the kernel's clock-tick rate for /proc times (fixed at 100
// on Linux for user-visible interfaces).
const userHZ = 100

// cpuMicros is the process's user+system CPU time so far, from
// /proc/<pid>/stat, in microseconds.
func (b *bulletd) cpuMicros() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(b.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, fmt.Errorf("reading bulletd stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 here.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short bulletd stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing bulletd stat: %v %v", err1, err2)
	}
	return float64(ut+st) * 1e6 / userHZ, nil
}

// peakRSSMB is the process's VmHWM in MB.
func (b *bulletd) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(b.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("reading bulletd status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in bulletd status")
}
