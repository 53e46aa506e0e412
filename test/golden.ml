(* Golden digests: the MD5 of every rendered table and figure of the
   scaled reproduction, of its trace aggregates, and of the quick
   protection matrix, committed in test/golden.md5 as
   "<section> <name> <md5>" lines. A refactor that moves any simulated
   number fails here. A deliberate change edits golden.md5 by hand: the
   failure message prints the section's actual lines. *)

let file = "golden.md5"

let digest s = Digest.to_hex (Digest.string s)

let expected section =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         String.starts_with ~prefix:(section ^ " ") l)

(* [entries] are (name, rendered text) pairs, in a fixed order. *)
let check section entries =
  let actual =
    List.map
      (fun (name, text) -> Printf.sprintf "%s %s %s" section name (digest text))
      entries
  in
  if actual <> expected section then
    Alcotest.failf "golden digests for %S differ from test/%s; actual:\n%s"
      section file
      (String.concat "\n" actual)
