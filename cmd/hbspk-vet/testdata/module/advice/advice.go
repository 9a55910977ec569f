// Package advice is clean but for one advisory finding on a deep tree:
// a megabyte broadcast through the flat one-phase variant, where the
// hierarchical variant is statically cheaper.
package advice

type Machine struct{}

type Ctx interface {
	Pid() int
	Sync(scope *Machine, label string) error
}

func BcastOnePhase(c Ctx, scope *Machine, root int, data []byte) ([]byte, error) {
	return data, c.Sync(scope, "bcast")
}

func Broadcast(c Ctx) error {
	_, err := BcastOnePhase(c, nil, 0, make([]byte, 1<<20))
	return err
}
