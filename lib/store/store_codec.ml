(* Binary record codec for the persistence tier.

   Layout of every store file:

     magic (4 bytes) | format version (u32 LE) | frame*

   and of every frame:

     payload length (u32 LE) | CRC32 of payload (u32 LE) | payload

   The payload is a record encoded with the primitives below: zigzag
   LEB128 varints, length-prefixed strings, IEEE-754 bit floats.  The
   framing is what makes recovery paranoid-by-default cheap: a torn
   tail shows up as a short read, a flipped bit as a CRC mismatch, and
   either is detected before a single byte of the payload is decoded. *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, poly 0xEDB88320) — table-driven, no dependency. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Primitive writers (Buffer) and readers (string + cursor). *)

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let at_end r = r.pos >= String.length r.src

let r_byte r =
  if r.pos >= String.length r.src then fail "unexpected end of record";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let w_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF))

(* LEB128 of a raw bit pattern ([lsr], so a negative int — i.e. a
   zigzag pattern with the top bit set — emits as 9 bytes rather than
   tripping a sign check). *)
let w_bits buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* Unsigned LEB128 of a non-negative int (lengths, tags, counts). *)
let w_uint buf n =
  if n < 0 then invalid_arg "Store_codec.w_uint: negative";
  w_bits buf n

let r_uint r =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then fail "varint too long";
    let b = r_byte r in
    n := !n lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !n

(* Zigzag for signed ints: small magnitudes stay short either sign.
   Magnitudes at or above 2^61 zigzag to a pattern with the top bit
   set, hence [w_bits], which round-trips the whole int range. *)
let w_int buf n = w_bits buf ((n lsl 1) lxor (n asr 62))
let r_int r =
  let z = r_uint r in
  (z lsr 1) lxor (- (z land 1))

let w_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | n -> fail "bad bool byte %d" n

let w_string buf s =
  w_uint buf (String.length s);
  Buffer.add_string buf s

let r_string r =
  let n = r_uint r in
  if n < 0 || r.pos + n > String.length r.src then fail "string overruns record";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let w_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

let r_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (r_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let w_list w buf xs =
  w_uint buf (List.length xs);
  List.iter (w buf) xs

let r_list rd r =
  let n = r_uint r in
  (* Hostile lengths bounded by the record length: each element is at
     least one byte, so a count beyond the remaining bytes is corrupt. *)
  if n > String.length r.src - r.pos then fail "list length overruns record";
  List.init n (fun _ -> rd r)

let w_tuple buf (t : Prelude.Tuple.t) =
  w_uint buf (Array.length t);
  Array.iter (w_int buf) t

let r_tuple r : Prelude.Tuple.t =
  let n = r_uint r in
  if n > String.length r.src - r.pos then fail "tuple length overruns record";
  Array.init n (fun _ -> r_int r)

(* ------------------------------------------------------------------ *)
(* File headers. *)

(* v2 appended the completeness certificate to result records; v3
   stores each result's outcome as its encoded response bytes (the
   shared memo's own form) under a new record tag.  An older snapshot
   read by v3 code passes the header check (only future versions are
   refused) but every result frame carries the retired tag 5, fails to
   decode and is skipped: the store degrades to colder, never to
   wrong.  Every other entry loads. *)
let format_version = 3
let snapshot_magic = "RDBS"
let journal_magic = "RDBJ"
let header_len = 8

let header magic =
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  w_u32 buf format_version;
  Buffer.contents buf

type header_check =
  | Header_ok
  | Header_torn
  | Bad_magic
  | Future_version of int

let check_header ~magic s =
  if String.length s < header_len then Header_torn
  else if String.sub s 0 4 <> magic then Bad_magic
  else
    let v =
      Char.code s.[4]
      lor (Char.code s.[5] lsl 8)
      lor (Char.code s.[6] lsl 16)
      lor (Char.code s.[7] lsl 24)
    in
    if v > format_version then Future_version v else Header_ok

(* ------------------------------------------------------------------ *)
(* Framing. *)

(* A frame length beyond this is assumed to be a corrupted length field
   rather than a real record; since a bad length loses the stream's
   framing, the reader treats everything from there on as a torn tail. *)
let max_frame_len = 1 lsl 26 (* 64 MiB *)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  w_u32 buf (String.length payload);
  w_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

type frame_result =
  | Frame of string
  | Frame_eof  (** clean end of stream *)
  | Frame_torn  (** partial frame (or insane length) at the tail *)
  | Frame_bad_crc  (** payload present but corrupt; stream still framed *)

let read_exactly ic n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.unsafe_to_string b)
    else
      let k = input ic b off (n - off) in
      if k = 0 then if off = 0 then None else Some (Bytes.sub_string b 0 off)
      else go (off + k)
  in
  go 0

let read_exactly_header ic = read_exactly ic header_len

let read_frame ic =
  match read_exactly ic 8 with
  | None -> Frame_eof
  | Some h when String.length h < 8 -> Frame_torn
  | Some h ->
      let u32 off =
        Char.code h.[off]
        lor (Char.code h.[off + 1] lsl 8)
        lor (Char.code h.[off + 2] lsl 16)
        lor (Char.code h.[off + 3] lsl 24)
      in
      let len = u32 0 and crc = u32 4 in
      if len > max_frame_len then Frame_torn
      else (
        match read_exactly ic len with
        | Some payload when String.length payload = len ->
            if crc32 payload = crc then Frame payload else Frame_bad_crc
        | _ -> Frame_torn)

(* ------------------------------------------------------------------ *)
(* Snapshot records: Shared_memo.dump_entry. *)

let w_result_value buf (v : Shared_memo.result_value) =
  let w_error (e : Request.error) =
    match e with
    | Request.Parse_error s ->
        w_uint buf 0;
        w_string buf s
    | Request.Unknown_instance s ->
        w_uint buf 1;
        w_string buf s
    | Request.Not_a_sentence vars ->
        w_uint buf 2;
        w_list w_string buf vars
    | Request.Timeout fuel ->
        w_uint buf 3;
        w_int buf fuel
    | Request.Ill_formed s ->
        w_uint buf 4;
        w_string buf s
    | Request.Bad_request s ->
        w_uint buf 5;
        w_string buf s
    | Request.Budget_exceeded { limit } ->
        w_uint buf 6;
        w_int buf limit
    | Request.Deadline_exceeded { deadline_s } ->
        w_uint buf 7;
        w_float buf deadline_s
    | Request.Oracle_unavailable { oracle; attempts } ->
        w_uint buf 8;
        w_string buf oracle;
        w_int buf attempts
    | Request.Worker_crash s ->
        w_uint buf 9;
        w_string buf s
    | Request.Overloaded { limit } ->
        w_uint buf 10;
        w_int buf limit
  in
  let w_certificate (c : Request.certificate) =
    match c with
    | Request.Cert_exact -> w_uint buf 0
    | Request.Cert_certain_lower -> w_uint buf 1
    | Request.Cert_possible_upper -> w_uint buf 2
    | Request.Cert_approximate { budget_spent; open_rels } ->
        w_uint buf 3;
        w_int buf budget_spent;
        w_list w_string buf open_rels
  in
  (match v.Shared_memo.value with
  | Ok body ->
      w_uint buf 0;
      w_string buf body
  | Error e ->
      w_uint buf 1;
      w_error e);
  w_certificate v.Shared_memo.cert

(* A stored body reaches the wire as it is, so it must be exactly what
   [Request.outcome_bytes] writes: one that does not decode, or does
   not re-encode to the same bytes, fails here and the loader skips
   it. *)
let r_body r =
  let body = r_string r in
  match Request.outcome_of_json body with
  | Ok o when String.equal (Request.outcome_bytes o) body -> body
  | Ok _ -> fail "result body is not canonical"
  | Error e -> fail "result body: %s" (Request.error_to_string e)

let r_result_value r : Shared_memo.result_value =
  let r_error () : Request.error =
    match r_uint r with
    | 0 -> Request.Parse_error (r_string r)
    | 1 -> Request.Unknown_instance (r_string r)
    | 2 -> Request.Not_a_sentence (r_list r_string r)
    | 3 -> Request.Timeout (r_int r)
    | 4 -> Request.Ill_formed (r_string r)
    | 5 -> Request.Bad_request (r_string r)
    | 6 -> Request.Budget_exceeded { limit = r_int r }
    | 7 -> Request.Deadline_exceeded { deadline_s = r_float r }
    | 8 ->
        let oracle = r_string r in
        let attempts = r_int r in
        Request.Oracle_unavailable { oracle; attempts }
    | 9 -> Request.Worker_crash (r_string r)
    | 10 -> Request.Overloaded { limit = r_int r }
    | n -> fail "bad error tag %d" n
  in
  let r_certificate () : Request.certificate =
    match r_uint r with
    | 0 -> Request.Cert_exact
    | 1 -> Request.Cert_certain_lower
    | 2 -> Request.Cert_possible_upper
    | 3 ->
        let budget_spent = r_int r in
        let open_rels = r_list r_string r in
        Request.Cert_approximate { budget_spent; open_rels }
    | n -> fail "bad certificate tag %d" n
  in
  let value =
    match r_uint r with
    | 0 -> Ok (r_body r)
    | 1 -> Error (r_error ())
    | n -> fail "bad result tag %d" n
  in
  let cert = r_certificate () in
  { Shared_memo.value; cert }

(* Retired tags stay retired, so an old record can never decode as
   something else: such a record fails to decode and the loader skips
   it.  Tag 4 held a plan-cache key (plans are no longer persisted);
   tag 5 held a result whose outcome was a tree of varints (v2), where
   tag 7 holds its encoded bytes (v3). *)
let encode_entry (e : Shared_memo.dump_entry) =
  let buf = Buffer.create 64 in
  (match e with
  | Shared_memo.D_instance { name; nrels } ->
      w_uint buf 0;
      w_string buf name;
      w_uint buf nrels
  | Shared_memo.D_children { inst; key; value } ->
      w_uint buf 1;
      w_string buf inst;
      w_tuple buf key;
      w_list w_int buf value
  | Shared_memo.D_equiv { inst; u; v; value } ->
      w_uint buf 2;
      w_string buf inst;
      w_tuple buf u;
      w_tuple buf v;
      w_bool buf value
  | Shared_memo.D_rel { inst; index; key; value } ->
      w_uint buf 3;
      w_string buf inst;
      w_uint buf index;
      w_tuple buf key;
      w_bool buf value
  | Shared_memo.D_result { key; value } ->
      w_uint buf 7;
      w_string buf key;
      w_result_value buf value
  | Shared_memo.D_rql_def { key; value } ->
      w_uint buf 6;
      w_string buf key;
      w_list w_tuple buf (Prelude.Tupleset.elements value));
  Buffer.contents buf

let decode_entry payload : Shared_memo.dump_entry =
  let r = reader payload in
  let e =
    match r_uint r with
    | 0 ->
        let name = r_string r in
        let nrels = r_uint r in
        Shared_memo.D_instance { name; nrels }
    | 1 ->
        let inst = r_string r in
        let key = r_tuple r in
        let value = r_list r_int r in
        Shared_memo.D_children { inst; key; value }
    | 2 ->
        let inst = r_string r in
        let u = r_tuple r in
        let v = r_tuple r in
        let value = r_bool r in
        Shared_memo.D_equiv { inst; u; v; value }
    | 3 ->
        let inst = r_string r in
        let index = r_uint r in
        let key = r_tuple r in
        let value = r_bool r in
        Shared_memo.D_rel { inst; index; key; value }
    | 7 ->
        let key = r_string r in
        let value = r_result_value r in
        Shared_memo.D_result { key; value }
    | 6 ->
        let key = r_string r in
        let value = Prelude.Tupleset.of_list (r_list r_tuple r) in
        Shared_memo.D_rql_def { key; value }
    | n -> fail "bad entry tag %d" n
  in
  if not (at_end r) then fail "trailing bytes after entry";
  e

(* ------------------------------------------------------------------ *)
(* Journal records. *)

type journal_record =
  | Admitted of { seq : int; line : string }
      (** [line] is the request's canonical JSON line as admitted. *)
  | Completed of { seq : int }

let encode_journal (jr : journal_record) =
  let buf = Buffer.create 64 in
  (match jr with
  | Admitted { seq; line } ->
      w_uint buf 0;
      w_uint buf seq;
      w_string buf line
  | Completed { seq } ->
      w_uint buf 1;
      w_uint buf seq);
  Buffer.contents buf

let decode_journal payload : journal_record =
  let r = reader payload in
  let jr =
    match r_uint r with
    | 0 ->
        let seq = r_uint r in
        let line = r_string r in
        Admitted { seq; line }
    | 1 -> Completed { seq = r_uint r }
    | n -> fail "bad journal tag %d" n
  in
  if not (at_end r) then fail "trailing bytes after journal record";
  jr
