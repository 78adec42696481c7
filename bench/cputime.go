package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

// The end-to-end metrics are CPU time, not wall time: user plus system
// time of the process doing the work, which excludes the time the
// hypervisor hands the machine's virtual CPUs to other guests. They are
// then scaled by the host's speed, which leakyref measures during the
// run. See README.md, "Why CPU time" and "Host speed".

// nominalRefNS is the CPU time of one leakyref chunk on the nominal
// host. A run's CPU times are scaled by nominalRefNS over the chunk's
// mean CPU time during the run, so they read as CPU time on a host that
// runs a chunk in 1 ms.
const nominalRefNS = 1e6

// selfCPU returns the CPU time, in seconds, this process has used so
// far, its exited threads included.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procCPU returns the CPU time, in seconds, the live threads of process
// pid have used so far: the sum of the first field of
// /proc/<pid>/task/*/schedstat, in nanoseconds. A thread that exits
// between listing and reading is skipped.
func procCPU(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		blob, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		f := bytes.Fields(blob)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		n, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += n
	}
	if ns <= 0 {
		// A kernel without scheduler statistics reports zeros; a zero
		// would read as free work.
		return 0, fmt.Errorf("%s: no thread reports any CPU time", dir)
	}
	return float64(ns) / 1e9, nil
}

// withRef runs fn while the leakyref next to this binary times its
// reference chunk, and returns the chunk's mean CPU time in nanoseconds.
// The meter is stopped and waited for on every path.
func withRef(ctx context.Context, stderr io.Writer, fn func() error) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(exe), "leakyref"))
	cmd.Stdout, cmd.Stderr = &out, stderr
	// Should this process die, the kernel stops the meter too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start leakyref: %w", err)
	}
	ferr := fn()
	stdin.Close() // the meter reports and exits at end of input
	werr := cmd.Wait()
	if ferr != nil {
		return 0, ferr
	}
	if werr != nil {
		return 0, fmt.Errorf("leakyref: %w", werr)
	}
	var chunks, ns int64
	if _, err := fmt.Sscan(out.String(), &chunks, &ns); err != nil || chunks < 1 || ns <= 0 {
		return 0, fmt.Errorf("leakyref: unexpected output %q", out.String())
	}
	return float64(ns) / float64(chunks), nil
}
