(** The paper experiments E1–E23: every theorem, proposition, worked
    example and proof construction of the paper, regenerated and
    checked ([bench/main.exe paper], and [test/test_paper.ml] under
    [dune runtest]). *)

val run : unit -> Json.t * string list
(** Run E1–E23 (under a second).  Returns the report, one object per
    experiment keyed ["E1"] … ["E23"], and the violated gates: every
    discrete claim is gated at its exact value (E23's question counts
    against the committed table beside it), E17 counts Def. 3.9
    questions instead of timing, and only E21's µs-per-operation
    timings are reported ungated. *)
