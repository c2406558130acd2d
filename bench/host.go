package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

var probeSink int

// probe runs a fixed compute-and-memory load (~0.1 s) and returns its
// duration: it interns 200,000 pseudo-random 24-byte string keys into a map
// and reads them back in a scattered order. That is the checker's own mix
// of hashing, random access and allocation, so the probe's time moves with
// the host's speed the way the workloads' times do, and a workload's time
// divided by the probe's is steady across host drift. The work is the same
// on every call.
func probe() time.Duration {
	const n = 200_000
	x := uint64(88172645463325252)
	start := time.Now()
	m := make(map[string]int32)
	keys := make([]string, 0, n)
	var b [24]byte
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			for k := 0; k < 8; k++ {
				b[j*8+k] = byte(x >> (8 * k))
			}
		}
		s := string(b[:])
		m[s] = int32(i)
		keys = append(keys, s)
	}
	sum := 0
	for i := range keys {
		sum += int(m[keys[(i*7919)%n]])
	}
	probeSink = sum
	return time.Since(start)
}

// stealSeconds reads the host-wide stolen CPU time from /proc/stat: time
// the hypervisor ran something else while this guest wanted the CPU. It
// returns 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// The aggregate "cpu" line; steal is its 8th value, in clock ticks of
	// the kernel's fixed USER_HZ (100 per second).
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

// peakRSSMB is this process's peak resident set in MiB (VmHWM), or 0 where
// /proc is unavailable. It counts only memory mapped since exec. The
// getrusage maximum would not do for a child: it also carries the peak of
// the parent whose address space the child shared until exec.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
