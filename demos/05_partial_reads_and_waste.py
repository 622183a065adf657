"""
When read-ahead backfires
=========================

Analysis jobs rarely read whole files: a typical scan reads one block,
skips several, reads the next. Push modes keep shipping bytes the client
will never look at, and big client buffers drag in whole stretches of
skipped file. The waste column below is exactly bytes_wire minus
bytes_consumed: data paid for on the network and thrown away.
"""

from remfio.client import ClientConfig, rf_close, rf_open, rf_read, rf_seek
from remfio.diskserver import DiskServer
from remfio.headnode import Headnode
from remfio.netemu import EmulatedNetwork, builtin_profiles
from remfio.runtime import VirtualRuntime
from remfio.wire import ReadMode

KiB = 1024
MiB = 1024 * 1024
SIZE = 32 * MiB
READ = 1 * MiB   # read 1 MiB ...
SKIP = 9        # ... then skip 9 of them
TOKEN = "demo"

rt = VirtualRuntime()
wan = builtin_profiles()["wan"]


def skip_scan(h):
    """Read READ bytes at every (READ * (SKIP + 1))-aligned offset."""
    offset = 0
    while offset < SIZE:
        rf_seek(h, offset)
        rf_read(h, READ)
        offset += READ * (SKIP + 1)


def scenario():
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN)
    head.start()
    srv = DiskServer(rt, net, shared_token=TOKEN)
    srv.start()
    pf = srv.seed_file("/data/scan", 1, 0, SIZE)
    head.register_file("/data/scan", SIZE, srv.address, pf.checksum)

    cases = [
        ("NORMAL", dict(mode=ReadMode.NORMAL)),
        ("READBUF 128 KiB buf", dict(mode=ReadMode.READBUF)),
        ("READBUF 8 MiB buf", dict(mode=ReadMode.READBUF,
                                   iobufsize=8 * MiB)),
        ("READAHEAD", dict(mode=ReadMode.READAHEAD)),
        ("STREAM", dict(mode=ReadMode.STREAM)),
    ]
    print(f"{'case':20s} {'consumed':>9s} {'wire':>9s} {'waste':>9s} "
          f"{'rate MiB/s':>10s}")
    for label, kw in cases:
        cfg = ClientConfig(rt, net, token=TOKEN, profile=wan, **kw)
        h = rf_open("/data/scan", cfg)
        skip_scan(h)
        c = rf_close(h)
        waste = c.bytes_wire - c.bytes_consumed
        print(f"{label:20s} {c.bytes_consumed / MiB:8.1f}M "
              f"{c.bytes_wire / MiB:8.1f}M {waste / MiB:8.1f}M "
              f"{c.rate / MiB:10.2f}")


# NORMAL transfers only what was asked for and wins outright. The push
# modes ship skipped regions (or refetch after each seek) and the oversized
# buffer pulls 8 MiB to satisfy each 1 MiB read.
rt.run(scenario)
