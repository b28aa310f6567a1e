(* Shared JSON-fragment formatting: one float format and one string
   escaper for every renderer in the repo (trace events, metric
   snapshots, provenance manifests, CSV export), so numbers round-trip
   identically everywhere. *)

(* Round-trip float text: %.17g prints enough digits that reading the
   string back recovers the exact double. *)
let float_rt x = Printf.sprintf "%.17g" x

(* JSON has no non-finite numbers; render them as null. *)
let float_json x = if Float.is_finite x then float_rt x else "null"

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

let obj fields =
  let buf = Buffer.create 192 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf k;
      Buffer.add_char buf ':';
      Buffer.add_string buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Field scraping                                                      *)
(* ------------------------------------------------------------------ *)

(* Minimal extraction from the flat one-line JSON objects this repo
   itself renders (service replies, trace events, BENCH.json rows) —
   enough for the churn driver, the trace aggregator and the bench
   comparator without a JSON parser dependency.  The first occurrence
   of a key wins. *)

(* Position just after ["key":] in [s], if the key occurs. *)
let after_key s ~key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length s and m = String.length pat in
  let rec scan i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else scan (i + 1)
  in
  scan 0

(* Skip the spaces a pretty-printed file puts after the colon; our own
   renderers emit none, so this is only for tolerance. *)
let skip_ws s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && (s.[!j] = ' ' || s.[!j] = '\t') do
    incr j
  done;
  !j

let string_field s ~key =
  match after_key s ~key with
  | None -> None
  | Some i ->
    let i = skip_ws s i in
    if i >= String.length s || s.[i] <> '"' then None
    else
      let buf = Buffer.create 16 in
      let rec go j =
        if j >= String.length s then None
        else
          match s.[j] with
          | '"' -> Some (Buffer.contents buf)
          | '\\' when j + 1 < String.length s ->
            (* Our own renderer only emits the simple JSON escapes;
               the scraper handles exactly those. *)
            (match s.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | c -> Buffer.add_char buf c);
            go (j + 2)
          | c ->
            Buffer.add_char buf c;
            go (j + 1)
      in
      go (i + 1)

let number_field s ~key =
  match after_key s ~key with
  | None -> None
  | Some i ->
    let i = skip_ws s i in
    let n = String.length s in
    let stop = ref i in
    while
      !stop < n
      && (match s.[!stop] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr stop
    done;
    if !stop = i then None else float_of_string_opt (String.sub s i (!stop - i))

let bool_field s ~key =
  match after_key s ~key with
  | None -> None
  | Some i ->
    let i = skip_ws s i in
    let n = String.length s in
    if i + 4 <= n && String.sub s i 4 = "true" then Some true
    else if i + 5 <= n && String.sub s i 5 = "false" then Some false
    else None
