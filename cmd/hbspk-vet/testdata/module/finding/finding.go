// Package finding seeds one correctness finding: only pid 0 reaches the
// barrier, so the other processors desync.
package finding

type Machine struct{}

type Ctx interface {
	Pid() int
	Sync(scope *Machine, label string) error
}

func Step(c Ctx) error {
	if c.Pid() == 0 {
		return c.Sync(nil, "root only")
	}
	return nil
}
