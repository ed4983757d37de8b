package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on Linux x86-64 and arm64).
const clockTicks = 100

// daemon is one running rcacopilotd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var control = &http.Client{Timeout: 10 * time.Second}

// startDaemon execs the daemon with args and returns once /metrics answers
// 200, with the time from exec to that answer. A daemon that exits during
// start-up is retried twice on a fresh port, in case another process took
// the free port first.
func startDaemon(bin, logPath string, args []string) (d *daemon, ready time.Duration, err error) {
	for range 3 {
		if d, ready, err = startOnce(bin, logPath, args); err == nil || !errors.Is(err, errEarlyExit) {
			break
		}
	}
	return d, ready, err
}

var errEarlyExit = errors.New("daemon exited during start-up")

func startOnce(bin, logPath string, args []string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.exited) }()
	deadline := start.Add(150 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("%w (%v); log %s:\n%s", errEarlyExit, d.err, logPath, tail(logPath))
		default:
		}
		if resp, err := control.Get("http://" + addr + "/metrics"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("daemon not ready after 150s; log %s:\n%s", logPath, tail(logPath))
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	control.CloseIdleConnections()
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// snapshot is the part of /metrics the benchmark reconciles against its
// own tallies.
type snapshot struct {
	Incidents struct {
		Submitted uint64 `json:"submitted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Pending   uint64 `json:"pending"`
		Dropped   uint64 `json:"droppedSSEEvents"`
	} `json:"incidents"`
	Admission struct {
		Teams []struct {
			Accepted     uint64 `json:"accepted"`
			RejectedRate uint64 `json:"rejectedRate"`
			RejectedLoad uint64 `json:"rejectedLoad"`
		} `json:"teams"`
	} `json:"admission"`
	Retrieval struct {
		Entries int `json:"entries"`
	} `json:"retrieval"`
	Durability *struct {
		Appended       int64  `json:"appendedRecords"`
		Synced         int64  `json:"syncedRecords"`
		LogBytes       int64  `json:"logBytes"`
		LastCompaction string `json:"lastCompaction"`
		Error          string `json:"error"`
	} `json:"durability"`
}

// counts are the boundary counters reconciled per phase.
type counts struct {
	accepted, rejectedRate, rejectedLoad           uint64
	submitted, completed, failed, pending, dropped uint64
	entries                                        int
	appended, synced, logBytes                     int64
	lastCompaction                                 string
}

func (d *daemon) scrape() (counts, error) {
	resp, err := control.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return counts{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return counts{}, fmt.Errorf("decode /metrics: %w", err)
	}
	c := counts{
		submitted: s.Incidents.Submitted, completed: s.Incidents.Completed,
		failed: s.Incidents.Failed, pending: s.Incidents.Pending, dropped: s.Incidents.Dropped,
		entries: s.Retrieval.Entries,
	}
	for _, t := range s.Admission.Teams {
		c.accepted += t.Accepted
		c.rejectedRate += t.RejectedRate
		c.rejectedLoad += t.RejectedLoad
	}
	if dur := s.Durability; dur != nil {
		if dur.Error != "" {
			return c, fmt.Errorf("daemon reports a WAL error: %s", dur.Error)
		}
		c.appended, c.synced, c.logBytes, c.lastCompaction = dur.Appended, dur.Synced, dur.LogBytes, dur.LastCompaction
	}
	return c, nil
}

func (c counts) minus(b counts) counts {
	return counts{
		accepted: c.accepted - b.accepted, rejectedRate: c.rejectedRate - b.rejectedRate,
		rejectedLoad: c.rejectedLoad - b.rejectedLoad,
		submitted:    c.submitted - b.submitted, completed: c.completed - b.completed,
		failed: c.failed - b.failed, pending: c.pending, dropped: c.dropped - b.dropped,
		entries: c.entries, appended: c.appended - b.appended, synced: c.synced - b.synced,
		logBytes: c.logBytes, lastCompaction: c.lastCompaction,
	}
}

func (c counts) String() string {
	s := fmt.Sprintf("accepted=%d rejected_load=%d rejected_rate=%d submitted=%d completed=%d failed=%d pending=%d sse_dropped=%d entries=%d",
		c.accepted, c.rejectedLoad, c.rejectedRate, c.submitted, c.completed, c.failed, c.pending, c.dropped, c.entries)
	if c.logBytes > 0 {
		s += fmt.Sprintf(" wal_appended=%d wal_synced=%d wal_log_bytes=%d", c.appended, c.synced, c.logBytes)
	}
	return s
}

// cpuMillis is the daemon's utime+stime so far.
func (d *daemon) cpuMillis() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}
