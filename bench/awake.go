package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine an idle vCPU halts, and waking it costs a trip through
// the hypervisor: tens of microseconds, varying from run to run, added to
// every request that finds the server asleep, and a host that clocks or
// schedules a mostly idle guest differently from a busy one. keepAwake starts
// one helper process per CPU that busy-loops under SCHED_IDLE, the policy
// that only ever runs when nothing else wants the CPU and is preempted at
// once when something does. The CPUs then never halt, and run-to-run spread
// of CPU-bound times drops about threefold (build_s: 7% → 2% IQR/median on
// the 2-core reference host). It returns the function that stops the helpers
// and waits for them.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var helpers []*exec.Cmd
	stop = func() {
		for _, h := range helpers {
			//lint:ignore droppederr the helper may already have exited; Wait below reaps it either way
			_ = h.Process.Kill()
			//lint:ignore droppederr a killed process always "fails"
			_ = h.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		h := exec.Command(exe, "-idle-spin")
		// Should this process die without running stop, the kernel kills
		// the helper; the helper also watches for a new parent itself.
		h.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := h.Start(); err != nil {
			stop()
			return nil, err
		}
		helpers = append(helpers, h)
	}
	return stop, nil
}

const schedIdle = 5 // SCHED_IDLE

// idleSpin is the helper: it drops itself to SCHED_IDLE and spins until its
// parent is gone. If the policy cannot be set it exits instead of competing
// with the benchmark at normal priority.
func idleSpin() error {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
	}
	return nil
}

var spinSink uint64
