//go:build !framepoison

package ether

// poison is a no-op in normal builds; see poison_on.go.
func poison([]byte) {}
