#!/bin/sh
# Tier-1 verification gate. The gate list lives in the Makefile's
# `verify` target; this script only runs it.
exec make -C "$(dirname "$0")/.." verify
