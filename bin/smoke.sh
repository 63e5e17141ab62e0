#!/bin/sh
# smoke.sh EXE FILE [CODES]: runs each command line of FILE as
# `EXE <line>`, after printing it as "$ amoeba <line>", so the echoed
# command and the one that ran cannot differ.  Lines are split the way
# the shell splits them, quotes included; blank and '#' lines are
# skipped.  Without CODES any non-zero exit stops the script with that
# status; with CODES (say "124 2") every command must exit with one of
# them.
exe=$1
case $exe in */*) ;; *) exe=./$exe ;; esac
file=$2
codes=$3
while IFS= read -r line; do
  case $line in '' | '#'*) continue ;; esac
  printf '\n$ amoeba %s\n' "$line"
  eval "\"\$exe\" $line"
  rc=$?
  if [ -z "$codes" ]; then
    [ "$rc" -eq 0 ] || exit "$rc"
  else
    case " $codes " in
      *" $rc "*) ;;
      *) echo "amoeba $line: exit $rc, expected one of $codes" >&2; exit 1 ;;
    esac
  fi
done < "$file"
