package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (fixed at 100 on every mainstream architecture).
const clockTicks = 100

// cpuSeconds returns user+system CPU seconds consumed so far by process
// pid; pid 0 means this process (getrusage, microsecond resolution).
func cpuSeconds(pid int) (float64, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		return tv(ru.Utime) + tv(ru.Stime), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, with utime and stime at fields 14 and 15.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns the VmHWM (peak resident set) of process pid, or of
// this process for pid 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// fsMedium names the filesystem holding dir, so every result states
// whether its store sat on RAM (tmpfs) or on a disk.
func fsMedium(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs (RAM)"
	case 0xEF53:
		return "ext4 (disk)"
	case 0x58465342:
		return "xfs (disk)"
	case 0x9123683E:
		return "btrfs (disk)"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type 0x%x", st.Type)
}
