#!/usr/bin/env bash
# Run every nlocalnet subcommand as a user of the package with no extras
# would, writing scratch files into the current directory, and stop at the
# first check that fails.  The arguments are the command that runs nlocalnet:
#
#   ci/bare_install.sh nlocalnet                  # the installed entry point
#   PYTHONPATH=src ci/bare_install.sh python3 -S -m nlocalnet
#
# Checks: every subcommand runs; generate and sweep print the bytes that
# they write to --output; the option parser takes a prefix, "=" with a
# leading minus sign and "--"; evaluate prints the same bytes on chain(3)
# and on a relabelled chain(3); a --p of 4300 nines, whose 2n - p has one
# digit more than str() converts, exits 2 with one line on stderr;
# evaluate --bogus exits 2 with one line on stderr and nothing on stdout;
# --help exits 0 and its first line is "usage: nlocalnet COMMAND [options]";
# lhv on star(24), given --alphabet-size and --grid-steps (read and
# ignored), exits 0 with "best_s": 1.0; validate and a maximize that takes
# its arguments from an @FILE run under ulimit -v 65536, a 64 MiB address
# space (a read sized by the 64 MiB file cap once failed there on any file);
# no subcommand imports __future__, getopt, gettext or pathlib (a plain
# interpreter imports none of them at start-up), and lhv does not import
# nlocalnet.inequality.  Imports are listed by PYTHONPROFILEIMPORTTIME, the
# environment form of python -X importtime.
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]   (the command that runs nlocalnet)" >&2
  exit 2
fi
nlocalnet=("$@")

"${nlocalnet[@]}" generate chain --n 3 --output chain3.json
"${nlocalnet[@]}" generate chain --n 3 > chain3.stdout
cmp chain3.json chain3.stdout
"${nlocalnet[@]}" validate --topology chain3.json
"${nlocalnet[@]}" evaluate --topology chain3.json --theta 0.25pi,0.25pi,0.25pi --alpha 0.25pi,0.25pi
"${nlocalnet[@]}" maximize --topology chain3.json --theta 0.25pi,0.25pi,0.25pi
"${nlocalnet[@]}" sweep --topology chain3.json --grid 0,0.25pi --output sweep.csv
"${nlocalnet[@]}" sweep --topology chain3.json --grid 0,0.25pi > sweep.stdout
cmp sweep.csv sweep.stdout
"${nlocalnet[@]}" lhv --topology chain3.json --output model.json
"${nlocalnet[@]}" evaluate --topo chain3.json --theta=-0.25pi,0.25pi,0.25pi --alpha 0.25pi,0.25pi
"${nlocalnet[@]}" generate --n 3 -- chain > chain3.dashes
cmp chain3.json chain3.dashes
"${nlocalnet[@]}" generate custom --n 3 --m 2 --p 2 --output relabelled.json \
  --edges '[{"source":1,"ends":["A2","B2"]},{"source":2,"ends":["A1","A2"]},{"source":3,"ends":["B1","A1"]}]'
"${nlocalnet[@]}" evaluate --topology chain3.json --theta 0.1,0.2,0.3 --alpha 0.4,0.5 > chain3.evaluate
"${nlocalnet[@]}" evaluate --topology relabelled.json --theta 0.1,0.2,0.3 --alpha 0.4,0.5 > relabelled.evaluate
cmp chain3.evaluate relabelled.evaluate
"${nlocalnet[@]}" generate star --n 24 --output star24.json
"${nlocalnet[@]}" lhv --topology star24.json --alphabet-size 3 --grid-steps 6 > star24.lhv
if ! grep -q '"best_s": 1.0' star24.lhv; then
  echo "lhv on star(24) must print \"best_s\": 1.0"; exit 1
fi

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
status=0
"${nlocalnet[@]}" evaluate --bogus > bogus.stdout 2> bogus.stderr || status=$?
if [ "$status" -ne 2 ] || [ "$(wc -l < bogus.stderr)" -ne 1 ] || [ -s bogus.stdout ]; then
  echo "evaluate --bogus must exit 2 with one stderr line and no stdout"; exit 1
fi
status=0
"${nlocalnet[@]}" --help > help.stdout || status=$?
if [ "$status" -ne 0 ] || [ "$(head -n 1 help.stdout)" != "usage: nlocalnet COMMAND [options]" ]; then
  echo "--help must exit 0 and start with its usage line"; exit 1
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
