"""Seeded REP006 violations: partition internals imported above core."""

import repro.core.partition as raw_partition
from repro.core import partition_fpm_many
from repro.core.partition import partition_cpm, partition_fpm
from repro.core.partition import partition_fpm_with_state, resolve_fpm


def bypass_the_facade(models, total):
    """Calls the solver internals instead of repro.core.solver.Solver."""
    allocs = partition_fpm(models, total)
    rows = partition_fpm_many(models, [total])
    constants = partition_cpm(models, total)
    many = raw_partition.partition_fpm_many(models, [total])
    return allocs, rows, constants, many


def bypass_the_warm_chain(models, total):
    """Hand-rolls the warm solve/re-solve pair instead of Solver.resolve."""
    allocs, state = partition_fpm_with_state(models, total)
    return resolve_fpm(state, total=total), allocs
