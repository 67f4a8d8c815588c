package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child when the benchmark dies
// without running its clean-up, so that no server outlives a run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
