"""
Four ways to read a remote file
===============================

A client session reads in one of four modes, fixed at open time. NORMAL
asks the server for every application read. READBUF fills a client-side
buffer and answers small reads from it. READAHEAD tells the server to push
the rest of the file down the control connection. STREAM opens a second,
data-only connection and streams over that. Same file, same bytes, very
different traffic patterns.
"""

from remfio.client import ClientConfig, rf_close, rf_open, rf_read
from remfio.diskserver import DiskServer
from remfio.headnode import Headnode
from remfio.netemu import EmulatedNetwork, builtin_profiles
from remfio.runtime import VirtualRuntime
from remfio.wire import ReadMode

KiB = 1024
MiB = 1024 * 1024
SIZE = 8 * MiB
TOKEN = "demo"

rt = VirtualRuntime()
wan = builtin_profiles()["wan"]


def scenario():
    # One headnode (namespace + open brokering) and one disk server holding
    # a single 8 MiB file.
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN)
    head.start()
    srv = DiskServer(rt, net, shared_token=TOKEN)
    srv.start()
    pf = srv.seed_file("/data/events", 1, 0, SIZE)
    head.register_file("/data/events", SIZE, srv.address, pf.checksum)

    print(f"{'mode':10s} {'open s':>7s} {'read s':>7s} {'requests':>8s} "
          f"{'wire MiB':>8s} {'rate MiB/s':>10s}")
    for mode in ReadMode:
        cfg = ClientConfig(rt, net, token=TOKEN, mode=mode, profile=wan)
        h = rf_open("/data/events", cfg)
        # the application reads 64 KiB at a time, start to finish
        while rf_read(h, 64 * KiB):
            pass
        c = rf_close(h)
        print(f"{mode.name:10s} {c.open_time:7.3f} {c.read_time:7.3f} "
              f"{h.request_count:8d} {c.bytes_wire / MiB:8.1f} "
              f"{c.rate / MiB:10.2f}")


# NORMAL pays one 12 ms round trip per 64 KiB read (128 of them); READBUF
# pays one per 128 KiB buffer fill; the push modes pay none at all and run
# at the link's speed.
rt.run(scenario)
