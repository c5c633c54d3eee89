"""The paper's research questions, mapped to the experiments that answer
them (Section IV-B's list, made navigable)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class ResearchQuestion:
    """One Section IV-B question with its answering artifacts."""

    question: str
    paper_sections: str
    experiments: tuple[str, ...]
    answer: str


RESEARCH_QUESTIONS: tuple[ResearchQuestion, ...] = (
    ResearchQuestion(
        "How much performance can be achieved vs the theoretical peak "
        "(what's the efficiency)?",
        "V-C",
        ("fig6", "fig7", "fig9"),
        "70-98% at the kernel level (FP32); at the array level the DRAM "
        "wall caps large configs far below peak",
    ),
    ResearchQuestion(
        "How much is the data-transfer overhead (DRAM->PL and PL->AIE) "
        "compared to compute?",
        "V-G",
        ("fig11",),
        "beyond C4 the DRAM-to-PL transfer dominates; exposed PL-AIE "
        "fill repeats once per DRAM tile",
    ),
    ResearchQuestion(
        "How does performance vary with the programming model "
        "(intrinsics vs API)?",
        "V-B",
        ("fig5",),
        "intrinsics win: the API costs 46% for FP32 and 7% for INT8",
    ),
    ResearchQuestion(
        "How does performance scale (weak and strong scaling)?",
        "V-E, V-F",
        ("fig9", "fig10"),
        "strong scaling is near-ideal while compute-bound and flattens "
        "at the memory wall; weak scaling degrades as IO grows",
    ),
    ResearchQuestion(
        "How sensitive is performance to workload parameters "
        "(size, shape)? What about tall/skinny DNN matrices?",
        "V-C, V-E, V-F, V-I",
        ("fig6", "fig7", "fig14"),
        "shape decides the bottleneck: small-K layers are store-bound, "
        "large-K layers input-load bound",
    ),
    ResearchQuestion(
        "How sensitive is performance to architecture parameters "
        "(#AIEs, #PLIOs, PL memory)?",
        "V-E, V-F, V-H",
        ("fig9", "fig13", "ext_sensitivity"),
        "AIEs help until bandwidth binds; PLIOs have diminishing "
        "returns; PL memory buys tiling-overhead reduction",
    ),
    ResearchQuestion(
        "What is the performance impact of different communication "
        "schemes between AIEs?",
        "V-D, V-H",
        ("fig8", "fig13"),
        "cascade is lowest-latency everywhere; via-switch hurts INT8 "
        "3x at small scale; packet switching trades time for PLIOs",
    ),
    ResearchQuestion(
        "What are the maximum compute/memory bounds? Are real workloads "
        "compute- or memory-bound?",
        "V-J",
        ("fig15", "dram_ports"),
        "with tiling overhead every Table III workload is DRAM-bound; "
        "the achieved DRAM bandwidth caps at 34% of theoretical",
    ),
)


def research_question_index() -> ExperimentResult:
    """Navigable index: question -> experiments -> one-line answer."""
    rows = [
        {
            "question": q.question,
            "sections": q.paper_sections,
            "experiments": ", ".join(q.experiments),
            "answer": q.answer,
        }
        for q in RESEARCH_QUESTIONS
    ]
    return ExperimentResult(
        experiment_id="questions",
        title="Research questions and the experiments that answer them",
        paper_reference="Section IV-B",
        rows=rows,
    )
