package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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

// cliRun is what one finished CLI process cost and produced. The resource
// figures come from the kernel's rusage for the reaped child (wait4), so
// they need no cooperation from the program.
type cliRun struct {
	wallS  float64
	cpuS   float64 // user + system
	rssMB  float64 // peak resident set
	stdout []byte
	err    error // start failure or non-zero exit, with stderr attached
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runCLI runs bin with args to completion and measures it.
func runCLI(ctx context.Context, bin string, args ...string) cliRun {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wallS: time.Since(start).Seconds(), stdout: stdout.Bytes()}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// daemon is one running binebenchd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
}

// freeAddr asks the kernel for an unused loopback port. The daemon does not
// report the port it bound, so ":0" cannot be passed through; the listener
// is closed again and the port handed over (a lost race fails the start and
// startDaemon retries).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon starts binebenchd over the store directory and returns once
// /readyz answers 200 (the prewarm pass is complete).
func startDaemon(ctx context.Context, bin, store string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", addr, "-workers", workers, "-trace-cache", store, "-access-log", "off")
		d.cmd.Stderr = &d.stderr
		if err := d.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			d.cmd.Wait() // the exit status of a terminated daemon carries no information
			close(d.exited)
		}()
		if last = d.waitReady(ctx); last == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, last
}

func (d *daemon) waitReady(ctx context.Context) error {
	timeout := time.After(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("binebenchd on %s exited before it was ready: %s", d.base, strings.TrimSpace(d.stderr.String()))
		case <-timeout:
			return fmt.Errorf("binebenchd on %s not ready after 30s", d.base)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// cpuSeconds returns the CPU time (user + system) the daemon has used so
// far, from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15, i.e. 12 and 13 after it.
	_, rest, ok := strings.Cut(string(raw), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, errors.New("unparseable /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on every Linux ABI
	return (utime + stime) / clockTicks, nil
}

// stop terminates the daemon, waits for it, and returns its peak resident
// set in MB. It is safe to call twice.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM) // fails harmlessly once the process is gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
