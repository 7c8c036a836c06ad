// Command lyra is the Lyra compiler as one tool, with the commands build,
// fuzz, paper and serve that usageText lists. build and serve name their
// target through topo.ParseTarget.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

const usageText = `usage: lyra <command> [flags], one of:

  lyra build -program lb.lyra -scope lb.scope [-topology testbed|fattree:<k>] [-out dir]
        compile a program and its scopes onto a target network, one chip program per switch
  lyra fuzz -n 500 -seed 1
        run a differential-testing campaign against the reference interpreter
  lyra paper -experiment fig9,ablation
        print the paper's evaluation tables (§7)
  lyra serve -addr 127.0.0.1:8080
        run the control-plane compile daemon

Run "lyra <command> -h" for a command's flags.
`

// commands maps each command to its setup, which declares the command's
// flags on fs and returns the function that runs it once fs has parsed the
// command line.
var commands = map[string]func(fs *flag.FlagSet) func() error{
	"build": buildCmd,
	"fuzz":  fuzzCmd,
	"paper": paperCmd,
	"serve": serveCmd,
}

func main() {
	fs, run, err := parse(os.Args[1:])
	switch {
	case fs == nil: // no command, an unknown one, or "help"
		if err != nil {
			fmt.Fprintf(os.Stderr, "lyra: %v\n\n", err)
		}
		fmt.Fprint(os.Stderr, usageText)
		if err != nil {
			os.Exit(2)
		}
	case errors.Is(err, flag.ErrHelp):
		usage(fs)
	case err != nil:
		fatal(fs, usageError{err})
	default:
		if err := run(); err != nil {
			fatal(fs, err)
		}
	}
}

// parse resolves a command line, "<command> [flags]", to the command's
// parsed flags and the function that runs it. It runs and prints nothing.
func parse(args []string) (*flag.FlagSet, func() error, error) {
	if len(args) == 0 {
		return nil, nil, errors.New("no command given")
	}
	setup, ok := commands[args[0]]
	switch {
	case args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help":
		return nil, nil, nil
	case !ok:
		return nil, nil, fmt.Errorf("unknown command %q", args[0])
	}
	fs := flag.NewFlagSet("lyra "+args[0], flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	run := setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return fs, nil, err
	}
	if fs.NArg() > 0 {
		return fs, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return fs, run, nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(os.Stderr, "usage: %s [flags]\n\nflags:\n", fs.Name())
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

// usageError is a command line that asks for nothing runnable: a bad flag,
// or a flag value that is missing or out of range.
type usageError struct{ error }

// fatal reports a command's error and exits: with the command's usage and
// status 2 for a usageError, with status 1 otherwise.
func fatal(fs *flag.FlagSet, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
	if errors.As(err, new(usageError)) {
		usage(fs)
		os.Exit(2)
	}
	os.Exit(1)
}
