"""ypserv: the NIS (Network Information Service) server.

Two versions, as in the paper's Table 1: ypserv1 carries an
*always-leak* (every map-query response record is leaked on every
path), ypserv2 carries a *sometimes-leak* (the result structure is
freed on the success path but leaked on an error path).

Behavioural model: a lookup server with modest computation per request,
small request/response buffers, a handful of long-lived map handles
(the false-positive generators of Table 5: 7 for ypserv1, 2 for
ypserv2), and a low allocation rate -- the profile of a small C daemon.
"""

from repro.workloads.base import Workload, fill, read_back
from repro.workloads.fixtures import TouchedCache

MAP_HANDLE_SITE = 0xA100
REQUEST_SITE = 0xA200
RESPONSE_SITE = 0xA300
RESULT_SITE = 0xA400


class Ypserv1(Workload):
    """ypserv with an ALeak: response records are never freed."""

    name = "ypserv1"
    loc = 11_200
    description = "a NIS server"
    bug = "aleak"
    default_requests = 600

    #: simulated instructions per lookup request.
    compute_per_request = 600_000
    fixture_fields = ("maps",)

    def setup(self, program, truth):
        # Seven long-lived map handles sharing the request-buffer group:
        # the Table 5 false-positive generators (7 before, 0 after).
        self.maps = TouchedCache(
            site=REQUEST_SITE, object_size=128, count=7, touch_period=4
        )
        self.maps.setup(program, first_global_slot=0)

    #: query kinds produce different request-buffer sizes, i.e. several
    #: healthy object groups (feeds the Figure 3 group population).
    request_sizes = (128, 192, 256)

    def handle_request(self, program, index, buggy, truth):
        # Parse the query into a request buffer (freed at end of request).
        size = self.request_sizes[index % len(self.request_sizes)]
        with program.frame(REQUEST_SITE):
            request = program.malloc(size)
        fill(program, request, size)
        program.set_global(60, request)

        # Look the key up: the compute-heavy part.
        program.compute(self.compute_per_request)
        self.maps.touch(program, index)

        # Build the response record.  THE BUG (buggy mode): it is
        # never freed, on any path -- a textbook ALeak.
        with program.frame(RESPONSE_SITE):
            response = program.malloc(48)
        fill(program, response, 48)
        read_back(program, response, 48)
        if buggy:
            truth.leaked_addresses.add(response)
        else:
            program.free(response)

        program.free(request)
        program.set_global(60, 0)


class Ypserv2(Workload):
    """ypserv with an SLeak: the error path skips freeing the result."""

    name = "ypserv2"
    loc = 9_700
    description = "a NIS server"
    bug = "sleak"
    default_requests = 600

    compute_per_request = 500_000
    fixture_fields = ("domains",)
    #: in buggy mode, this fraction of requests takes the leaky
    #: error path (an unknown-key lookup).
    error_rate = 0.04

    def setup(self, program, truth):
        # Two long-lived domain bindings: Table 5's 2-before/0-after.
        self.domains = TouchedCache(
            site=RESULT_SITE, object_size=96, count=2, touch_period=3
        )
        self.domains.setup(program, first_global_slot=0)

    request_sizes = (160, 224)

    def handle_request(self, program, index, buggy, truth):
        size = self.request_sizes[index % len(self.request_sizes)]
        with program.frame(REQUEST_SITE):
            request = program.malloc(size)
        fill(program, request, size)
        program.set_global(60, request)

        program.compute(self.compute_per_request)
        self.domains.touch(program, index)

        # The result structure: freed on the success path, leaked on
        # the error path (the SLeak).
        with program.frame(RESULT_SITE):
            result = program.malloc(96)
        fill(program, result, 96)
        error_path = buggy and self.rng.random() < self.error_rate
        if error_path:
            truth.leaked_addresses.add(result)  # free is skipped
        else:
            read_back(program, result, 96)
            program.free(result)

        program.free(request)
        program.set_global(60, 0)
