# Development entry points. Each target but test and clean is one call
# to a stage of check.sh, the one place a CI command is written, so
# `make check` runs exactly what CI runs. check.sh lists the stages.

.PHONY: check build lint race chaos verify bench cover fuzz test clean

check:
	./check.sh

build lint race chaos bench cover fuzz:
	./check.sh $@

verify:
	./check.sh verify multiproc

test:
	go test ./...

clean:
	go clean ./...
