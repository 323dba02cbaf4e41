package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procSample is one reading of a server process's resource use.
type procSample struct {
	cpuMs  float64 // user + system CPU since the process started
	hwmKiB int64   // peak resident set (VmHWM)
}

// parseStatCPU extracts utime+stime (in ms) from a /proc/<pid>/stat
// line. The command name is parenthesised and may itself contain spaces
// or parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command terminator")
	}
	// After ") " come fields 3.. (state is field 3); utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 of this remainder.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want ≥ 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}

// parseStatusHWM extracts VmHWM (KiB) from /proc/<pid>/status.
func parseStatusHWM(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// readProc samples a live process.
func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procSample{}, err
	}
	hwm, err := parseStatusHWM(string(status))
	if err != nil {
		return procSample{}, err
	}
	return procSample{cpuMs: cpu, hwmKiB: hwm}, nil
}
