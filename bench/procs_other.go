//go:build !linux

package main

import "os/exec"

// dieWithParent is Linux-only; elsewhere the benchmark's own clean-up
// is all there is.
func dieWithParent(*exec.Cmd) {}
