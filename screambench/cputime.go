package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID: the CPU time
// every thread of the process has run, in nanoseconds. On a shared host
// it leaves out the time the process waited for a CPU, whether behind
// other processes or behind other guests (steal time), which is what
// makes it steadier than wall time there.
const clockProcessCPUTime = 2

// cpuNow returns the process's CPU time so far.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
