// Package staleignore is the golden fixture for the stale-directive
// sweep: a directive that suppresses a real finding is consumed, one on
// a clean line is stale, and one naming an analyzer that no longer
// exists under that name (rename rot) silences nothing and never will.
package staleignore

type Machine struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func consumedDirective(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("x")) //hbspk:ignore commgraph -- deliberate: flushed by the caller's next super-step
}

func staleDirective(c Ctx) error {
	//hbspk:ignore commgraph // want `stale //hbspk:ignore commgraph: the directive suppresses nothing on its line`
	return c.Sync(nil, "clean")
}

func renameRot(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	// The analyzer was renamed commtopology -> commgraph long ago; the
	// directive cites the dead name, so the finding below it is live.
	return c.Send(1, 0, []byte("y")) //hbspk:ignore commtopology // want `unmatched send` `//hbspk:ignore commtopology names no analyzer \(renamed or removed\?\): the directive silences nothing`
}

// A comma-joined list is not a directive grammar: it reads as one name
// that no analyzer has, so it silences nothing.
func commaList(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("z")) //hbspk:ignore commgraph,bufown // want `unmatched send` `//hbspk:ignore commgraph,bufown names no analyzer`
}
