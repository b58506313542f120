"""Frozen floats of the pipeline-stage overhead model.

``pipeline_timeline`` and the parallelism planner both charge a pipeline
stage its bubble idle time and its exposed boundary transfers.  These are
the ``repr`` of every bucket of the pipeline study's timelines, of
slow-link timelines (whose boundary transfers are exposed), and of every
``plan`` layout's iteration time, recorded from the code.  A refactor of
the stage-overhead math must keep each one byte-identical.
"""

from repro.config import BERT_LARGE, Precision, training_point
from repro.distributed import PCIE4, XGMI, LinkSpec, pipeline_timeline, plan
from repro.experiments import pipeline_study
from repro.hw import mi100

#: A link slow enough that boundary transfers outlast micro-batch compute.
SLOW = LinkSpec(name="slow", bandwidth_gbps=0.05, latency_us=50.0)

STUDY = [
    ('TS 2-way, B=32', [
        ('transformer', '0.23915650367232358'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.002255066666666667'),
        ('optimizer', '0.019524611836648727'),
        ('communication', '0.0629066436923077'),
        ('dr_rc_ln_replicated', '0.0339264'),
    ]),
    ('PP 2-stage, M=8, B=32', [
        ('transformer', '0.22717694320844345'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.0'),
        ('optimizer', '0.01750684373345041'),
        ('communication', '0.0'),
        ('pipeline_bubble', '0.03247913729224247'),
    ]),
    ('TS 4-way, B=32', [
        ('transformer', '0.13344842279399916'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.002255066666666667'),
        ('optimizer', '0.01178007402152267'),
        ('communication', '0.09579996553846154'),
        ('dr_rc_ln_replicated', '0.0339264'),
    ]),
    ('PP 4-stage, M=16, B=32', [
        ('transformer', '0.11358847160422172'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.0'),
        ('optimizer', '0.008753421866725205'),
        ('communication', '0.0'),
        ('pipeline_bubble', '0.027420867512572132'),
    ]),
    ('TS 8-way, B=32', [
        ('transformer', '0.08800102671306442'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.002255066666666667'),
        ('optimizer', '0.007907805113959646'),
        ('communication', '0.11512662646153847'),
        ('dr_rc_ln_replicated', '0.0339264'),
    ]),
    ('PP 8-stage, M=32, B=32', [
        ('transformer', '0.05679423580211086'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.0'),
        ('optimizer', '0.004376710933362602'),
        ('communication', '0.0'),
        ('pipeline_bubble', '0.019567273016289074'),
    ]),
]
SLOW_TIMELINES = [
    ('PP 1-stage, M=4, B=32', [
        ('transformer', '0.4543538864168869'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.002255066666666667'),
        ('optimizer', '0.03501368746690082'),
        ('communication', '0.0'),
        ('pipeline_bubble', '0.0'),
    ]),
    ('PP 4-stage, M=32, B=32', [
        ('transformer', '0.11358847160422172'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.0'),
        ('optimizer', '0.008753421866725205'),
        ('communication', '0.3817993865325639'),
        ('pipeline_bubble', '0.013710433756286068'),
    ]),
    ('PP 8-stage, M=8, B=32', [
        ('transformer', '0.05679423580211086'),
        ('output', '0.03265615512949633'),
        ('embedding', '0.0'),
        ('optimizer', '0.004376710933362602'),
        ('communication', '0.49298785813678564'),
        ('pipeline_bubble', '0.07826909206515631'),
    ]),
]
PLAN = [
    ('TS1 x PP1 x DP16', '0.5339926257184122', True),
    ('TS1 x PP2 x DP8', '0.33877270471506105', True),
    ('TS2 x PP1 x DP8', '0.35437156666205843', True),
    ('TS2 x PP2 x DP4', '0.22791914705413371', True),
    ('TS4 x PP1 x DP4', '0.2499656893009156', True),
    ('TS1 x PP4 x DP4', '0.25427366470020996', True),
    ('TS4 x PP2 x DP2', '0.1642032782995978', True),
    ('TS2 x PP4 x DP2', '0.1748996560563236', True),
    ('TS8 x PP1 x DP2', '0.20612387832472553', True),
    ('TS1 x PP8 x DP2', '0.238245985658741', True),
    ('TS4 x PP4 x DP1', '0.130076690764755', True),
    ('TS8 x PP2 x DP1', '0.13689006471998671', True),
    ('TS2 x PP8 x DP1', '0.16880334816972292', True),
]
PLAN_SLOW = [
    ('TS1 x PP1 x DP16', '0.5339926257184122', True),
    ('TS1 x PP2 x DP8', '0.3910043411028427', True),
    ('TS1 x PP4 x DP4', '0.5099224045967148', True),
    ('TS1 x PP8 x DP2', '0.5759368965793707', True),
    ('TS2 x PP1 x DP8', '32.554367450182056', True),
    ('TS2 x PP2 x DP4', '16.602347037363472', True),
    ('TS2 x PP4 x DP2', '8.619262927960849', True),
    ('TS2 x PP8 x DP1', '4.632824232662615', True),
    ('TS4 x PP1 x DP4', '48.56378351458092', True),
    ('TS4 x PP2 x DP2', '24.722420412708853', True),
    ('TS4 x PP4 x DP1', '12.680849314875957', True),
    ('TS8 x PP1 x DP2', '56.60450067448473', True),
    ('TS8 x PP2 x DP1', '28.79307199036668', True),
]


def _buckets(timeline):
    return (timeline.label,
            [(name, repr(value)) for name, value in timeline.buckets.items()])


def _layouts(intra_link, micro_batches):
    layouts = plan(BERT_LARGE, training_point(1, 32, Precision.FP32),
                   mi100(), devices=16, intra_link=intra_link,
                   inter_link=PCIE4, micro_batches=micro_batches)
    return [(layout.label, repr(layout.iteration_s), layout.feasible)
            for layout in layouts]


def test_pipeline_study_rows():
    got = [_buckets(timeline) for pair in pipeline_study.run()
           for timeline in pair]
    assert got == STUDY


def test_slow_link_pipeline_timelines():
    training = training_point(1, 32, Precision.FP32)
    got = [_buckets(pipeline_timeline(BERT_LARGE, training, mi100(), SLOW,
                                      stages=stages,
                                      micro_batches=micro_batches))
           for stages, micro_batches in ((1, 4), (4, 32), (8, 8))]
    assert got == SLOW_TIMELINES


def test_plan_layouts():
    assert _layouts(XGMI, 8) == PLAN


def test_plan_layouts_slow_intra_link():
    assert _layouts(SLOW, 32) == PLAN_SLOW
