package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one solapd child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// waitExit closes when the child has ended and been reaped.
	waitExit chan struct{}
	// bootS is exec -> first GET /api/healthz 200: data generation, the
	// packed-column build and the rule parse.
	bootS float64
}

// startDaemon launches solapd with the benchmark's dataset and users and
// nothing else, so every tuning flag keeps its default, and waits until it
// answers its health check.
func startDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr, "-seed", strconv.Itoa(dataSeed),
		"-stores", strconv.Itoa(dataStores), "-sales", strconv.Itoa(dataSales), "-users", usersFlag())
	d.cmd.Stderr = &d.stderr
	// The child must not outlive the benchmark, however the benchmark ends
	// (a signal, a panic): the kernel kills it when its parent dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing
		close(exited)
	}()
	d.waitExit = exited
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/api/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootS = time.Since(start).Seconds()
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("solapd exited during start-up: %s", d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("solapd not healthy after 60 s: %s", d.stderr.String())
		}
	}
}

// stop terminates the child and returns once it has ended. Stopping a
// stopped daemon does nothing.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.waitExit:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waitExit
	}
}

// procCPU is the user+system CPU seconds process pid has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesized and may contain spaces.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	return (utime + stime) / 100, nil
}

// procPeakRSSMB is the process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
