"""State images (``repro.state/v1``): a live run at a request boundary.

A checkpoint's ``state`` section holds one image of everything a
straight run reads after the boundary -- clock, event log, metrics,
tracer, DRAM, caches, page table, TLB, kernel, heap, monitor,
workload, ground truth and monitoring stack -- so resume can load it
into a freshly booted twin and continue, instead of re-running the
recorded prefix from its seed.  The checkpoint keeps no other copy of
that state: ``repro inspect`` derives its sections from the image.

Each component exports its own payload through the ``state_dict`` /
``load_state`` pair next to its code; this module only assembles them
(:func:`capture_image`), packs the image as zlib-compressed, base64
JSON with its SHA-256 (:func:`encode_image`, :func:`unpack_image`),
and loads it back component by component (:func:`load_image`).  The
image is an external input: every malformed payload is a
:class:`ConfigurationError` naming its component.  No code is ever
deserialized -- callbacks (probes, clock timers, fault handlers, watch
hits) are re-wired by booting the recorded stack, never stored.
"""

import base64
import contextlib
import hashlib
import json
import zlib

from repro.common.errors import ConfigurationError, ReproError
from repro.workloads.base import GroundTruth

#: schema tag of a decoded state image.
STATE_SCHEMA = "repro.state/v1"

#: monitors whose runs a state image covers; any other monitor's
#: checkpoint carries no image and resumes by replay.
IMAGE_MONITORS = ("native", "safemem", "safemem-ml", "safemem-mc")

#: zlib level of the packed image (fast; the image is mostly repeats).
COMPRESSION_LEVEL = 1

#: the monitoring-stack components an image carries, by image name.
STACK_COMPONENTS = ("sampler", "alerts", "trend", "history")

#: everything a malformed payload can raise while it loads.
_LOAD_ERRORS = (ReproError, KeyError, TypeError, ValueError, IndexError,
                AttributeError, OverflowError)


def _components(machine, monitor, stack):
    """``(name, component)`` in load order (the page table before the
    TLB that points into it)."""
    program = monitor.program
    return (
        ("clock", machine.clock),
        ("events", machine.events),
        ("metrics", machine.metrics),
        ("tracer", machine.tracer),
        ("dram", machine.dram),
        ("controller", machine.controller),
        ("cache", machine.cache),
        ("page_table", machine.page_table),
        ("frames", machine.frames),
        ("swap", machine.swap),
        ("mmu", machine.mmu),
        ("kernel", machine.kernel),
        ("machine", machine),
        ("program", program),
        ("monitor", monitor),
        ("workload", program.workload),
        *((name, stack.get(name)) for name in STACK_COMPONENTS),
    )


def covers(machine, monitor, run_info, truth):
    """True when an image of this run at this boundary can resume it:
    a covered monitor, a workload driving the monitor's program inside
    its own ``workload.<name>`` span, and no detection yet."""
    run_info = run_info or {}
    program = getattr(monitor, "program", None)
    workload = getattr(program, "workload", None)
    spans = machine.tracer.active_spans()
    return (run_info.get("monitor") in IMAGE_MONITORS
            and workload is not None
            and workload.name == run_info.get("workload")
            and truth is not None and truth.detection is None
            and [span.name for span in spans]
            == [f"workload.{workload.name}"])


def capture_image(machine, monitor, truth, stack):
    """The state image of a live run at a request boundary.

    ``stack`` maps :data:`STACK_COMPONENTS` names to the live sampler,
    alert engine, trend engine and history store (or None).  Capture
    is observation-only: nothing is flushed, ticked or emitted.
    """
    image = {"schema": STATE_SCHEMA}
    for name, component in _components(machine, monitor, stack):
        image[name] = (component.state_dict()
                       if component is not None else None)
    image["truth"] = truth.state_dict()
    return image


def _dumps(value):
    """Compact JSON text; keys keep their insertion order, since
    several components record order that matters (registration,
    arming, series creation)."""
    return json.dumps(value, separators=(",", ":"))


def encode_image(image):
    """A checkpoint ``state`` section: the packed image and the SHA-256
    of its JSON bytes."""
    data = _dumps(image).encode()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "image": base64.b64encode(
            zlib.compress(data, COMPRESSION_LEVEL)).decode("ascii"),
    }


def unpack_image(section):
    """The image's JSON text from a (checked) ``state`` section, its
    SHA-256 checked."""
    try:
        data = zlib.decompress(base64.b64decode(section["image"],
                                                validate=True))
    except (ValueError, zlib.error) as error:
        raise ConfigurationError(
            f"state image does not decode: {error}") from None
    if hashlib.sha256(data).hexdigest() != section["sha256"]:
        raise ConfigurationError(
            "state image does not match its SHA-256 digest")
    try:
        return data.decode()
    except UnicodeDecodeError as error:
        raise ConfigurationError(
            f"state image is not text: {error}") from None


def _members(text, names):
    """Decode the image object one member at a time.

    Yields ``(name, value, digest)`` for each of ``names`` in order,
    where ``digest`` is the SHA-256 of the member's JSON text, so at
    most one component's payload is decoded at a time.
    """
    decoder = json.JSONDecoder()
    index = 0
    try:
        for position, name in enumerate(names):
            if text[index] != ("{" if position == 0 else ","):
                raise ValueError(f"expected the {name!r} member")
            key, index = decoder.raw_decode(text, index + 1)
            if key != name or text[index] != ":":
                raise ConfigurationError(
                    f"state image member {position} must be {name!r}, "
                    f"got {key!r}")
            value, end = decoder.raw_decode(text, index + 1)
            digest = hashlib.sha256(
                text[index + 1:end].encode()).hexdigest()
            index = end
            yield name, value, digest
        if text[index:] != "}":
            raise ValueError("unexpected members after 'truth'")
    except (ValueError, IndexError) as error:
        raise ConfigurationError(
            f"state image is not a packed {STATE_SCHEMA} object: "
            f"{error}") from None


def load_image(text, machine, monitor, program, workload, stack):
    """Load a packed image's JSON text into a freshly booted run.

    ``machine``, ``monitor`` and ``stack`` are booted from the
    checkpoint's recipe (so every probe, subscription, timer and
    handler is wired as in the recorded run), ``program`` is attached
    and ``workload`` is built but not set up; its next ``run``
    continues after the captured request.  Members are decoded and
    loaded one at a time.  Returns ``(truth, digests)``: the restored
    :class:`~repro.workloads.base.GroundTruth` and each member's
    SHA-256, for :func:`verify_image`.
    """
    program.workload = workload
    components = dict(_components(machine, monitor, stack))
    digests = {}
    truth = None
    for name, payload, digest in _members(
            text, ("schema", *components, "truth")):
        digests[name] = digest
        if name == "schema":
            if payload != STATE_SCHEMA:
                raise ConfigurationError(
                    f"state image schema must be {STATE_SCHEMA!r}, got "
                    f"{payload!r}")
        elif name == "truth":
            with _named(name):
                truth = GroundTruth.from_state(payload)
        elif components[name] is None:
            if payload is not None:
                raise ConfigurationError(
                    f"state image component {name!r} has no counterpart "
                    f"in the recorded stack")
        else:
            with _named(name):
                if name == "workload":
                    workload.load_state(program, payload)
                else:
                    components[name].load_state(payload)
    workload.restored = truth
    return truth, digests


def verify_image(digests, machine, monitor, truth, stack):
    """``(ok, diverged)``: does the restored run re-capture, member by
    member, exactly the JSON the image was loaded from?"""
    captured = [("schema", STATE_SCHEMA),
                *_components(machine, monitor, stack), ("truth", truth)]
    diverged = []
    for name, component in captured:
        payload = (component if name == "schema"
                   else None if component is None
                   else component.state_dict())
        digest = hashlib.sha256(_dumps(payload).encode()).hexdigest()
        if digest != digests.get(name):
            diverged.append(name)
    return not diverged, diverged


@contextlib.contextmanager
def _named(name):
    """Report a payload's load failure as a named ConfigurationError."""
    try:
        yield
    except _LOAD_ERRORS as error:
        reason = (f"missing field {error.args[0]!r}"
                  if type(error) is KeyError and error.args else str(error))
        raise ConfigurationError(
            f"state image component {name!r} does not load: "
            f"{reason}") from None
