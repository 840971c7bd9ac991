"""The export format does not depend on how messages find their receiver.

``CommEvent`` stores its receiver's index, not the receiver itself; the
export still writes ``dst_replica_seq``.  The digests below pin
``schedule_to_dict`` for one fixed CAFT schedule per network model to
the bytes written when events still referenced their receiving replica,
and the reload must resolve every event's receiver.
"""

import hashlib
import json

import pytest

from repro.comm import OnePortNetwork, RoutedOnePortNetwork
from repro.experiments.registry import SCHEDULERS
from repro.schedule.export import schedule_from_dict, schedule_to_dict
from tests.conftest import make_instance
from tests.schedulers.test_fastpath_equiv import make_routed_instance

DIGESTS = {
    "oneport": "c4758f368c1f8c0025f5b582203215c40985cd23d0507c3f68e8d8acbb9c1898",
    "uniport": "312f38cffd33970dc058700a362844794d273480b2aea59402c5eff507e6555d",
    "oneport-nooverlap": "11f3d069dc400333e265ba9228b2fc3f0fd13353f5dd2632260f782570c64e5b",
    "macro-dataflow": "fcc2b20e52e04235423893cf2e1b7279ac35de4e24d2de44a959f21c7a7e7b0f",
    "insertion": "84fef6a2004d512074ec0aaa2ddd2efff164c2cd86a9490f2cc4f6d6d27f07b5",
    "routed-ring": "91c765a4845d71baccd48c7624684a042bc220d428219bbe617ef7c6bb6d5ca0",
    "routed-torus": "e6eb73167f37ab47ed7b57bdbf1295399bcedc91ae864953abc42ae709def9b5",
}


def fixed_schedule(label):
    if label.startswith("routed-"):
        inst, topo = make_routed_instance(
            1, label.split("-", 1)[1], num_tasks=12, num_procs=6
        )
        network = RoutedOnePortNetwork(topo)
    else:
        inst = make_instance(12, 5, granularity=2.0, seed=5)
        network = (
            OnePortNetwork(inst.platform, policy="insertion")
            if label == "insertion"
            else label
        )
    return inst, SCHEDULERS.get("caft").runner(inst, 1, 0, network, True)


@pytest.mark.parametrize("label", sorted(DIGESTS))
def test_to_dict_bytes_are_unchanged(label):
    _inst, sched = fixed_schedule(label)
    text = json.dumps(schedule_to_dict(sched), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[label]


@pytest.mark.parametrize("label", sorted(DIGESTS))
def test_from_dict_resolves_every_receiver(label):
    inst, sched = fixed_schedule(label)
    data = schedule_to_dict(sched)
    rebuilt = schedule_from_dict(data, inst)
    assert sched.events, "the fixed schedule must ship messages"
    for e, ed in zip(rebuilt.events, data["events"]):
        receiver = rebuilt.receiver(e)
        assert receiver.seq == ed["dst_replica_seq"]
        assert (receiver.task, receiver.proc) == (e.dst_task, e.dst_proc)
        assert e in receiver.inputs[e.src_task]
