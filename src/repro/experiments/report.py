"""Run the whole evaluation and render the paper-vs-measured report.

``python -m repro report`` produces the text that EXPERIMENTS.md records:
every table and figure, measured values beside the paper's, plus the shape
checks (who wins, crossovers, improvement factors).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import (
    fig2_socket_fpm,
    fig3_gpu_versions,
    fig5_contention,
    fig6_process_times,
    fig7_exec_vs_size,
    table2_exec_time,
    table3_partitioning,
)
from repro.experiments import paper_data


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative criterion, measured against the paper's claim."""

    name: str
    expected: str
    measured: str
    passed: bool


def shape_checks(
    fig2: fig2_socket_fpm.Fig2Result,
    fig3: fig3_gpu_versions.Fig3Result,
    fig5: fig5_contention.Fig5Result,
    table2: table2_exec_time.Table2Result,
    table3: table3_partitioning.Table3Result,
    fig6: fig6_process_times.Fig6Result,
    fig7: fig7_exec_vs_size.Fig7Result,
) -> list[ShapeCheck]:
    """Evaluate every headline claim of the paper on the measured data."""
    checks: list[ShapeCheck] = []

    s6_plateau = fig2.plateau("s6")
    s5_plateau = fig2.plateau("s5")
    checks.append(
        ShapeCheck(
            "Fig2: s6 above s5, plateaus near paper's reading",
            f"s6~{paper_data.FIG2_S6_PLATEAU:.0f}, s5~{paper_data.FIG2_S5_PLATEAU:.0f} GFlops",
            f"s6={s6_plateau:.0f}, s5={s5_plateau:.0f} GFlops",
            s6_plateau > s5_plateau
            and abs(s6_plateau - paper_data.FIG2_S6_PLATEAU) / paper_data.FIG2_S6_PLATEAU < 0.15
            and abs(s5_plateau - paper_data.FIG2_S5_PLATEAU) / paper_data.FIG2_S5_PLATEAU < 0.15,
        )
    )

    in_core = fig3.in_core_sizes()
    v2_over_v1 = [
        fig3.v2[i] / fig3.v1[i] for i in in_core if fig3.sizes[i] > 300
    ]
    ratio = sum(v2_over_v1) / len(v2_over_v1)
    checks.append(
        ShapeCheck(
            "Fig3: version 2 doubles version 1 in the resident range",
            "~2.0x",
            f"{ratio:.2f}x",
            1.5 <= ratio <= 2.6,
        )
    )

    ooc = fig3.out_of_core_sizes()
    near_limit = [i for i in ooc if fig3.sizes[i] <= 2.0 * fig3.memory_limit_blocks]
    v3_gain = [fig3.v3[i] / fig3.v2[i] - 1.0 for i in near_limit]
    gain = sum(v3_gain) / len(v3_gain) if v3_gain else 0.0
    checks.append(
        ShapeCheck(
            "Fig3: overlap gain of version 3 past the memory limit",
            f"~{100 * paper_data.V3_OVER_V2_GAIN:.0f}%",
            f"{100 * gain:.0f}%",
            0.15 <= gain <= 0.9,
        )
    )

    drop_small = fig5.shared[0].mean_gpu_drop
    drop_big = fig5.shared[1].mean_gpu_drop
    cpu_drop = max(s.mean_cpu_drop for s in fig5.shared)
    lo, hi = paper_data.GPU_CONTENTION_DROP
    checks.append(
        ShapeCheck(
            "Fig5: GPU drops 7-15% under contention, CPU barely affected",
            f"GPU {100 * lo:.0f}-{100 * hi:.0f}%, CPU ~0%",
            f"GPU {100 * drop_small:.0f}%/{100 * drop_big:.0f}%, CPU {100 * cpu_drop:.1f}%",
            lo * 0.5 <= drop_small <= hi * 1.5
            and lo * 0.5 <= drop_big <= hi * 1.5
            and cpu_drop < 0.05,
        )
    )

    t40 = table2.row(40)
    t70 = table2.row(70)
    checks.append(
        ShapeCheck(
            "Table II: GTX680 beats CPUs at 40x40, loses at 70x70; hybrid wins all",
            "orderings as published",
            f"40x40 {t40[1]:.0f}<{t40[0]:.0f}s, 70x70 {t70[1]:.0f}>{t70[0]:.0f}s, "
            f"hybrid {t40[2]:.0f}/{t70[2]:.0f}s",
            t40[1] < t40[0]
            and t70[1] > t70[0]
            and all(table2.row(n)[2] == min(table2.row(n)) for n in table2.sizes),
        )
    )

    cpm70 = table3.cpm_row(70)
    fpm70 = table3.fpm_row(70)
    fpm40 = table3.fpm_row(40)
    checks.append(
        ShapeCheck(
            "Table III: CPM keeps G1:S6 near 8 at 70x70; FPM drops toward 4-5",
            "CPM ~7.8, FPM ~4.5",
            f"CPM {cpm70.ratio_g1_s6():.1f}, FPM {fpm70.ratio_g1_s6():.1f}",
            cpm70.ratio_g1_s6() > 6.5
            and paper_data.RATIO_G1_S6_OUT_OF_CORE[0] * 0.8
            <= fpm70.ratio_g1_s6()
            <= paper_data.RATIO_G1_S6_OUT_OF_CORE[1] * 1.2,
        )
    )
    checks.append(
        ShapeCheck(
            "Table III: FPM G1:S6 near 9-10 in the resident range (40x40)",
            f"~{paper_data.RATIO_G1_S6_IN_CORE:.0f}x",
            f"{fpm40.ratio_g1_s6():.1f}x",
            7.0 <= fpm40.ratio_g1_s6() <= 12.0,
        )
    )

    checks.append(
        ShapeCheck(
            "Fig6: FPM levels the per-process profile and cuts computation time",
            f"~{100 * paper_data.FIG6_COMPUTATION_CUT:.0f}% cut, flat profile",
            f"{100 * fig6.computation_cut:.0f}% cut, imbalance "
            f"{fig6.imbalance(fig6.fpm_times):.2f} (CPM "
            f"{fig6.imbalance(fig6.cpm_times):.2f})",
            fig6.computation_cut >= 0.2
            and fig6.imbalance(fig6.fpm_times)
            < fig6.imbalance(fig6.cpm_times),
        )
    )

    big = fig7.sizes[-1]
    checks.append(
        ShapeCheck(
            "Fig7: FPM ~30% under CPM and ~45% under homogeneous at large n",
            f"~{100 * paper_data.FIG7_CUT_VS_CPM:.0f}% / "
            f"~{100 * paper_data.FIG7_CUT_VS_HOMOGENEOUS:.0f}%",
            f"{100 * fig7.cut_vs_cpm(big):.0f}% / "
            f"{100 * fig7.cut_vs_homogeneous(big):.0f}%",
            fig7.cut_vs_cpm(big) >= 0.15
            and fig7.cut_vs_homogeneous(big) >= 0.3,
        )
    )
    return checks
