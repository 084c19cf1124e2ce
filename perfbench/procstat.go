package main

// Readers for the Linux /proc counters the benchmark samples around a
// timed window: a process's CPU time and peak RSS, the host's CPU-steal
// share, and this process's own CPU.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPU returns the CPU time process pid's threads have run, summed
// from each thread's schedstat (nanosecond resolution, where
// /proc/<pid>/stat counts 10 ms ticks). Threads that exited drop out of
// the sum; the Go runtime keeps its threads for the process lifetime.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %q", dir, t.Name(), b)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procPeakRSS returns the peak resident set (VmHWM) of process pid in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// resetPeakRSS restarts this process's VmHWM at its current RSS (Linux
// 4.0+), so a later procPeakRSS reads the peak of the interval between.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks: the stolen, idle (idle + iowait) and total time.
type hostCPU struct{ steal, idle, total uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	// user nice system idle iowait irq softirq steal (guest time is
	// already inside user/nice).
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		h.total += v
		switch i {
		case 4, 5:
			h.idle += v
		case 8:
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// busyShare is the share of host CPU time that was not idle (stolen
// time included) between two readings.
func busyShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 1 - float64(b.idle-a.idle)/float64(b.total-a.total)
}

// unstolenShare is unstolen over the interval between two readings.
func unstolenShare(a, b hostCPU) float64 {
	return unstolen(stealShare(a, b), busyShare(a, b))
}
