// Package clean is an SPMD program hbspk-vet has nothing to report on.
package clean

type Machine struct{}

type Ctx interface {
	Pid() int
	Sync(scope *Machine, label string) error
}

func Step(c Ctx) error {
	if err := c.Sync(nil, "one"); err != nil {
		return err
	}
	return c.Sync(nil, "two")
}
