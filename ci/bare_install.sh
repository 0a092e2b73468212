#!/usr/bin/env bash
# Run every nlocalnet subcommand as a user of the package with no extras
# would, writing scratch files into the current directory, and stop at the
# first check that fails.  The arguments are the command that runs nlocalnet:
#
#   ci/bare_install.sh nlocalnet                  # the installed entry point
#   PYTHONPATH=src ci/bare_install.sh python3 -S -m nlocalnet
#
# Checks: every subcommand runs; the option parser takes "--", and
# generate prints the bytes that it writes to --output; a --p of 4300 nines,
# whose 2n - p has one digit more than str() converts, exits 2 with one line
# on stderr and nothing on stdout; validate and a maximize that takes its
# arguments from an @FILE run under ulimit -v 65536, a 64 MiB address space
# (a read sized by the 64 MiB file cap once failed there on any file); no
# subcommand imports __future__, getopt, gettext or pathlib (a plain
# interpreter imports none of them at start-up), and lhv does not import
# nlocalnet.inequality.  Imports are listed by PYTHONPROFILEIMPORTTIME, the
# environment form of python -X importtime.
#
# Checks that Tier-1 tests make, and so are not repeated here:
# - sweep and generate print the bytes they write to --output:
#   test_cli::test_sweep_prints_the_bytes_that_it_writes_to_output;
# - evaluate prints the same bytes on chain(3) and on a relabelled chain(3):
#   test_cli::test_evaluate_prints_the_same_bytes_on_a_relabelled_layout;
# - a unique prefix and "=" with a leading minus sign:
#   test_cli::test_a_unique_prefix_stands_for_its_option and
#   test_cli::test_evaluate_command;
# - evaluate --bogus exits 2 with one stderr line and no stdout:
#   test_cli::test_usage_errors_are_one_line;
# - --help exits 0 and starts with its usage line:
#   test_cli::test_each_entry_module_runs_the_cli;
# - lhv reads and ignores --alphabet-size and --grid-steps and prints
#   "best_s": 1.0: test_cli::test_lhv_ignores_its_alphabet_and_grid_options.
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]   (the command that runs nlocalnet)" >&2
  exit 2
fi
nlocalnet=("$@")

"${nlocalnet[@]}" generate chain --n 3 --output chain3.json
"${nlocalnet[@]}" validate --topology chain3.json
"${nlocalnet[@]}" evaluate --topology chain3.json --theta 0.25pi,0.25pi,0.25pi --alpha 0.25pi,0.25pi
"${nlocalnet[@]}" maximize --topology chain3.json --theta 0.25pi,0.25pi,0.25pi
"${nlocalnet[@]}" sweep --topology chain3.json --grid 0,0.25pi --output sweep.csv
"${nlocalnet[@]}" lhv --topology chain3.json --output model.json
"${nlocalnet[@]}" generate --n 3 -- chain > chain3.dashes
cmp chain3.json chain3.dashes

printf '%s\n' --topology chain3.json --theta 0.25pi,0.25pi,0.25pi > maximize.args
if ! (ulimit -v 65536 && "${nlocalnet[@]}" validate --topology chain3.json > /dev/null \
      && "${nlocalnet[@]}" maximize @maximize.args > /dev/null); then
  echo "validate and maximize @FILE must run under a 64 MiB address space"; exit 1
fi

status=0
"${nlocalnet[@]}" generate custom --n 3 --m 2 --p "-$(printf '9%.0s' $(seq 4300))" \
  --edges '[]' > huge.stdout 2> huge.stderr || status=$?
if [ "$status" -ne 2 ] || [ "$(wc -l < huge.stderr)" -ne 1 ] || [ -s huge.stdout ]; then
  echo "generate custom with a 4300-digit --p must exit 2 with one stderr line"; exit 1
fi

for args in "generate chain --n 3" "validate --topology chain3.json" \
    "evaluate --topology chain3.json --theta 0.25pi,0.25pi,0.25pi --alpha 0.25pi,0.25pi" \
    "maximize --topology chain3.json --theta 0.25pi,0.25pi,0.25pi" \
    "sweep --topology chain3.json --grid 0,0.25pi" "lhv --topology chain3.json"; do
  # $args is split into words on purpose
  PYTHONPROFILEIMPORTTIME=1 "${nlocalnet[@]}" $args 2> importtime.txt > /dev/null
  if grep -E '[|] +(__future__|getopt|gettext|pathlib)$' importtime.txt; then
    echo "nlocalnet $args imports a module it should not"; exit 1
  fi
  if [ "${args%% *}" = lhv ] && grep -E '[|] +nlocalnet[.]inequality$' importtime.txt; then
    echo "nlocalnet lhv imports nlocalnet.inequality"; exit 1
  fi
done
echo "bare install: every check passed"
